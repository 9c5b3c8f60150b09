package server

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file is the wire grammar: a memcached-style line protocol, parsed
// into a command struct before anything touches a session or the lock
// service. Parsing is total — any byte sequence either yields a valid
// command or a *ProtoError naming what was wrong — so the fuzz target
// (FuzzParseCommand) can assert "never panics, never accepts garbage"
// over the whole input space.
//
// Requests are single ASCII lines, LF or CRLF terminated, fields split on
// single spaces:
//
//	session
//	ping
//	trylock <key> [<ttl_ms>]
//	wait <id> <key> [<ttl_ms> [<timeout_ms>]]
//	cancel <id>
//	unlock <key>
//	renew <key> [<ttl_ms>]
//	trylockmany <ttl_ms> <key> [<key> ...]
//	lockmany <id> <ttl_ms> <key> [<key> ...]
//	unlockmany <key> [<key> ...]
//	token <key>
//	stats
//	quit
//
// Keys are non-zero uint64s, decimal or 0x-prefixed hex (the zero key is
// GLS's NULL and is rejected at the parser, before it can reach the
// service's panic). Wait ids are client-chosen uint64s scoped to the
// session. Durations are milliseconds; 0 or absent selects the server
// default. Responses are single lines with an uppercase verb; see
// DESIGN.md §14 for the full response grammar.
// token <key> answers TOKEN <key> <n>: no live grant of the key carries a
// token larger than n, every later grant will. For a key nobody holds or
// waits on, n is its shard's floor (gls.Service.Seq): 0 on a fresh server.

// Op enumerates the wire commands.
type Op int

// The command set. OpInvalid is the zero value so an unparsed Command is
// never mistaken for a real one.
const (
	OpInvalid Op = iota
	OpSession
	OpPing
	OpTryLock
	OpWait
	OpCancel
	OpUnlock
	OpRenew
	OpTryLockMany
	OpLockMany
	OpUnlockMany
	OpToken
	OpStats
	OpQuit
)

// String names the op as it appears on the wire.
func (o Op) String() string {
	switch o {
	case OpSession:
		return "session"
	case OpPing:
		return "ping"
	case OpTryLock:
		return "trylock"
	case OpWait:
		return "wait"
	case OpCancel:
		return "cancel"
	case OpUnlock:
		return "unlock"
	case OpRenew:
		return "renew"
	case OpTryLockMany:
		return "trylockmany"
	case OpLockMany:
		return "lockmany"
	case OpUnlockMany:
		return "unlockmany"
	case OpToken:
		return "token"
	case OpStats:
		return "stats"
	case OpQuit:
		return "quit"
	}
	return "invalid"
}

// Command is one parsed request line.
type Command struct {
	// Op is the command verb.
	Op Op
	// ID is the client-chosen wait id (OpWait, OpLockMany, OpCancel).
	ID uint64
	// Key is the single-key operand (OpTryLock, OpWait, OpUnlock, OpRenew,
	// OpToken).
	Key uint64
	// Keys is the batch operand (OpTryLockMany, OpLockMany, OpUnlockMany),
	// in wire order; the service canonicalizes.
	Keys []uint64
	// TTL is the requested lease duration; 0 selects the server default.
	TTL time.Duration
	// Timeout bounds an OpWait; 0 selects the server default.
	Timeout time.Duration
}

// Error codes carried by ERR responses. Stable strings, part of the wire
// contract: clients switch on the code, the trailing text is for humans.
const (
	// ErrCodeCommand is an unknown or empty command verb.
	ErrCodeCommand = "command"
	// ErrCodeArgs is a wrong argument count or shape for a known verb.
	ErrCodeArgs = "args"
	// ErrCodeKey is an unparseable or zero key.
	ErrCodeKey = "key"
	// ErrCodeNumber is an unparseable numeric field (id, ttl, timeout).
	ErrCodeNumber = "number"
	// ErrCodeTooMany is a batch exceeding the server's key limit.
	ErrCodeTooMany = "toomany"
	// ErrCodeTooLong is a request line exceeding the server's byte limit.
	ErrCodeTooLong = "toolong"
	// ErrCodeNotHeld is a release/renew of a lock this session does not hold.
	ErrCodeNotHeld = "notheld"
	// ErrCodeExpired is a renew of a lease that has already expired.
	ErrCodeExpired = "expired"
	// ErrCodeHeld is an acquisition of a key this session already holds.
	ErrCodeHeld = "held"
	// ErrCodeDupID is a wait id already outstanding on this session.
	ErrCodeDupID = "dupid"
	// ErrCodeOverload is an acquisition queue at capacity.
	ErrCodeOverload = "overload"
)

// ProtoError is a request the parser (or a handler's argument validation)
// rejected. It renders as the wire's ERR line.
type ProtoError struct {
	// Code is one of the ErrCode constants.
	Code string
	// Detail is the human-readable remainder of the ERR line.
	Detail string
}

// Error implements error.
func (e *ProtoError) Error() string { return "glsd: " + e.Code + ": " + e.Detail }

func protoErrf(code, format string, args ...any) *ProtoError {
	return &ProtoError{Code: code, Detail: fmt.Sprintf(format, args...)}
}

// MaxBatchKeys is the default cap on keys per batched command. Grant
// responses list every key with its token on one line, so the cap also
// bounds response length (see Options.MaxBatchKeys).
const MaxBatchKeys = 64

// parseKey parses a non-zero uint64 key, decimal or 0x hex.
func parseKey(s string) (uint64, *ProtoError) {
	k, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, protoErrf(ErrCodeKey, "bad key %q", s)
	}
	if k == 0 {
		return 0, protoErrf(ErrCodeKey, "zero key is not a valid lock")
	}
	return k, nil
}

// parseUint parses a uint64 field (wait ids, millisecond counts), naming
// the field in the error.
func parseUint(field, s string) (uint64, *ProtoError) {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, protoErrf(ErrCodeNumber, "bad %s %q", field, s)
	}
	return v, nil
}

// parseMillis parses a millisecond count into a duration, refusing values
// that would overflow time.Duration when scaled.
func parseMillis(field, s string) (time.Duration, *ProtoError) {
	v, perr := parseUint(field, s)
	if perr != nil {
		return 0, perr
	}
	if v > uint64(maxDuration/time.Millisecond) {
		return 0, protoErrf(ErrCodeNumber, "%s %d ms overflows", field, v)
	}
	return time.Duration(v) * time.Millisecond, nil
}

const maxDuration = time.Duration(1<<63 - 1)

// ParseCommand parses one request line (already stripped of its LF/CRLF
// terminator) under the given batch cap. It never panics; any input is
// either a Command or a *ProtoError. maxBatch <= 0 selects MaxBatchKeys.
func ParseCommand(line string, maxBatch int) (Command, *ProtoError) {
	if maxBatch <= 0 {
		maxBatch = MaxBatchKeys
	}
	fields := strings.Split(line, " ")
	// strings.Split never yields an empty slice; an empty line or one with
	// doubled spaces produces empty fields, which are rejected below (the
	// wire grammar is single-space separated, like memcached's).
	for _, f := range fields {
		if f == "" {
			return Command{}, protoErrf(ErrCodeCommand, "empty field (single spaces, no leading/trailing space)")
		}
	}
	cmd := Command{}
	verb, args := fields[0], fields[1:]
	argc := func(min, max int) *ProtoError {
		if len(args) < min || len(args) > max {
			return protoErrf(ErrCodeArgs, "%s takes %d-%d args, got %d", verb, min, max, len(args))
		}
		return nil
	}
	switch verb {
	case "session":
		cmd.Op = OpSession
		return cmd, argc(0, 0)
	case "ping":
		cmd.Op = OpPing
		return cmd, argc(0, 0)
	case "stats":
		cmd.Op = OpStats
		return cmd, argc(0, 0)
	case "quit":
		cmd.Op = OpQuit
		return cmd, argc(0, 0)
	case "trylock":
		cmd.Op = OpTryLock
		if perr := argc(1, 2); perr != nil {
			return Command{}, perr
		}
		var perr *ProtoError
		if cmd.Key, perr = parseKey(args[0]); perr != nil {
			return Command{}, perr
		}
		if len(args) == 2 {
			if cmd.TTL, perr = parseMillis("ttl", args[1]); perr != nil {
				return Command{}, perr
			}
		}
		return cmd, nil
	case "wait":
		cmd.Op = OpWait
		if perr := argc(2, 4); perr != nil {
			return Command{}, perr
		}
		var perr *ProtoError
		if cmd.ID, perr = parseUint("id", args[0]); perr != nil {
			return Command{}, perr
		}
		if cmd.Key, perr = parseKey(args[1]); perr != nil {
			return Command{}, perr
		}
		if len(args) >= 3 {
			if cmd.TTL, perr = parseMillis("ttl", args[2]); perr != nil {
				return Command{}, perr
			}
		}
		if len(args) == 4 {
			if cmd.Timeout, perr = parseMillis("timeout", args[3]); perr != nil {
				return Command{}, perr
			}
		}
		return cmd, nil
	case "cancel":
		cmd.Op = OpCancel
		if perr := argc(1, 1); perr != nil {
			return Command{}, perr
		}
		var perr *ProtoError
		if cmd.ID, perr = parseUint("id", args[0]); perr != nil {
			return Command{}, perr
		}
		return cmd, nil
	case "unlock":
		cmd.Op = OpUnlock
		if perr := argc(1, 1); perr != nil {
			return Command{}, perr
		}
		var perr *ProtoError
		if cmd.Key, perr = parseKey(args[0]); perr != nil {
			return Command{}, perr
		}
		return cmd, nil
	case "renew":
		cmd.Op = OpRenew
		if perr := argc(1, 2); perr != nil {
			return Command{}, perr
		}
		var perr *ProtoError
		if cmd.Key, perr = parseKey(args[0]); perr != nil {
			return Command{}, perr
		}
		if len(args) == 2 {
			if cmd.TTL, perr = parseMillis("ttl", args[1]); perr != nil {
				return Command{}, perr
			}
		}
		return cmd, nil
	case "token":
		cmd.Op = OpToken
		if perr := argc(1, 1); perr != nil {
			return Command{}, perr
		}
		var perr *ProtoError
		if cmd.Key, perr = parseKey(args[0]); perr != nil {
			return Command{}, perr
		}
		return cmd, nil
	case "trylockmany":
		cmd.Op = OpTryLockMany
		if perr := argc(2, 1+maxBatch); perr != nil {
			if len(args) > 1+maxBatch {
				return Command{}, protoErrf(ErrCodeTooMany, "%s batch of %d exceeds limit %d", verb, len(args)-1, maxBatch)
			}
			return Command{}, perr
		}
		var perr *ProtoError
		if cmd.TTL, perr = parseMillis("ttl", args[0]); perr != nil {
			return Command{}, perr
		}
		if cmd.Keys, perr = parseKeys(args[1:]); perr != nil {
			return Command{}, perr
		}
		return cmd, nil
	case "lockmany":
		cmd.Op = OpLockMany
		if perr := argc(3, 2+maxBatch); perr != nil {
			if len(args) > 2+maxBatch {
				return Command{}, protoErrf(ErrCodeTooMany, "%s batch of %d exceeds limit %d", verb, len(args)-2, maxBatch)
			}
			return Command{}, perr
		}
		var perr *ProtoError
		if cmd.ID, perr = parseUint("id", args[0]); perr != nil {
			return Command{}, perr
		}
		if cmd.TTL, perr = parseMillis("ttl", args[1]); perr != nil {
			return Command{}, perr
		}
		if cmd.Keys, perr = parseKeys(args[2:]); perr != nil {
			return Command{}, perr
		}
		return cmd, nil
	case "unlockmany":
		cmd.Op = OpUnlockMany
		if perr := argc(1, maxBatch); perr != nil {
			if len(args) > maxBatch {
				return Command{}, protoErrf(ErrCodeTooMany, "%s batch of %d exceeds limit %d", verb, len(args), maxBatch)
			}
			return Command{}, perr
		}
		var perr *ProtoError
		if cmd.Keys, perr = parseKeys(args); perr != nil {
			return Command{}, perr
		}
		return cmd, nil
	}
	return Command{}, protoErrf(ErrCodeCommand, "unknown command %q", verb)
}

// parseKeys parses a batch operand. Duplicates are allowed on the wire —
// the service's (shard, key) canonicalization coalesces them, so a client
// built from a messy key list stays balanced (see gls.LockMany).
func parseKeys(args []string) ([]uint64, *ProtoError) {
	keys := make([]uint64, len(args))
	for i, a := range args {
		k, perr := parseKey(a)
		if perr != nil {
			return nil, perr
		}
		keys[i] = k
	}
	return keys, nil
}
