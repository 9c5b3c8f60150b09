package server

import (
	"fmt"
	"strconv"
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
// DESIGN.md §14 for the full response grammar. wait and lockmany are
// answered QUEUED <id> and then, once, by their terminal line: GRANT or
// GRANTMANY, TIMEOUT <id> (lockmany has no timeout field, so its bound is
// always the server default) or CANCELLED <id>.
// token <key> answers TOKEN <key> <n>: no live grant of the key carries a
// token larger than n, every later grant will. For a key nobody holds or
// waits on, n is the service's floor (gls.Service.Seq): 0 on a fresh server.

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

// many reports whether o's operand is a key list (Command.Keys) rather than
// one key (Command.Key).
func (o Op) many() bool {
	return o == OpTryLockMany || o == OpLockMany || o == OpUnlockMany
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
	// ErrCodeOverload is a wait refused at the bound on outstanding waits.
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

// byteseq is what a request line arrives as: a string through ParseCommand,
// the connection reader's own buffer bytes on the wire path. One parser body
// serves both, so the wire path makes no string per line.
type byteseq interface{ ~string | ~[]byte }

// parseKey parses a non-zero uint64 key, decimal or 0x hex. (string(f) of
// a []byte field does not escape into strconv, so it costs no allocation.)
func parseKey[T byteseq](f T) (uint64, *ProtoError) {
	k, err := strconv.ParseUint(string(f), 0, 64)
	if err != nil {
		return 0, protoErrf(ErrCodeKey, "bad key %q", string(f))
	}
	if k == 0 {
		return 0, protoErrf(ErrCodeKey, "zero key is not a valid lock")
	}
	return k, nil
}

// parseUint parses a uint64 field (wait ids, millisecond counts), naming
// the field in the error.
func parseUint[T byteseq](field string, f T) (uint64, *ProtoError) {
	v, err := strconv.ParseUint(string(f), 0, 64)
	if err != nil {
		return 0, protoErrf(ErrCodeNumber, "bad %s %q", field, string(f))
	}
	return v, nil
}

// parseMillis parses a millisecond count into a duration, refusing values
// that would overflow time.Duration when scaled.
func parseMillis[T byteseq](field string, f T) (time.Duration, *ProtoError) {
	v, perr := parseUint(field, f)
	if perr != nil {
		return 0, perr
	}
	if v > uint64(maxDuration/time.Millisecond) {
		return 0, protoErrf(ErrCodeNumber, "%s %d ms overflows", field, v)
	}
	return time.Duration(v) * time.Millisecond, nil
}

const maxDuration = time.Duration(1<<63 - 1)

// form is a verb's argument shape. Every request is
//
//	verb [id] key [ttl [timeout]]      (single-key: key set, opt trailing durations)
//	verb [id] [ttl] key [key ...]      (batched: many set, ttl mandatory where present)
//
// so one table and one loop parse the whole grammar.
type form struct {
	op   Op
	id   bool // a leading wait id
	key  bool // one key...
	opt  int  // ...then up to opt optional durations: ttl, timeout
	many bool // a batch of keys...
	ttl  bool // ...after a mandatory ttl
}

// formOf looks a verb up. (A switch on string(bytes) does not allocate.)
func formOf[T byteseq](verb T) (form, bool) {
	switch string(verb) {
	case "session":
		return form{op: OpSession}, true
	case "ping":
		return form{op: OpPing}, true
	case "stats":
		return form{op: OpStats}, true
	case "quit":
		return form{op: OpQuit}, true
	case "trylock":
		return form{op: OpTryLock, key: true, opt: 1}, true
	case "wait":
		return form{op: OpWait, id: true, key: true, opt: 2}, true
	case "cancel":
		return form{op: OpCancel, id: true}, true
	case "unlock":
		return form{op: OpUnlock, key: true}, true
	case "renew":
		return form{op: OpRenew, key: true, opt: 1}, true
	case "token":
		return form{op: OpToken, key: true}, true
	case "trylockmany":
		return form{op: OpTryLockMany, many: true, ttl: true}, true
	case "lockmany":
		return form{op: OpLockMany, id: true, many: true, ttl: true}, true
	case "unlockmany":
		return form{op: OpUnlockMany, many: true}, true
	}
	return form{}, false
}

// cut splits s at its first space (the caller has ruled out empty fields).
func cut[T byteseq](s T) (field, rest T) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i], s[i+1:]
		}
	}
	return s, s[len(s):]
}

// ParseCommand parses one request line (already stripped of its LF/CRLF
// terminator) under the given batch cap. It never panics; any input is
// either a Command or a *ProtoError. maxBatch <= 0 selects MaxBatchKeys.
func ParseCommand(line string, maxBatch int) (Command, *ProtoError) {
	return parseCommand(line, maxBatch)
}

// parseCommand is the parser body, shared by ParseCommand and the
// connection reader (which hands it the scanner's own bytes; nothing of
// line is retained).
func parseCommand[T byteseq](line T, maxBatch int) (Command, *ProtoError) {
	if maxBatch <= 0 {
		maxBatch = MaxBatchKeys
	}
	// The wire grammar is single-space separated, like memcached's: an empty
	// line, a leading, trailing or doubled space is an empty field.
	empty := len(line) == 0 || line[0] == ' ' || line[len(line)-1] == ' '
	nargs := 0
	for i := 0; !empty && i < len(line); i++ {
		if line[i] == ' ' {
			nargs++
			empty = line[i+1] == ' ' // in range: the last byte is not a space
		}
	}
	if empty {
		return Command{}, protoErrf(ErrCodeCommand, "empty field (single spaces, no leading/trailing space)")
	}
	verb, rest := cut(line)
	f, ok := formOf(verb)
	if !ok {
		return Command{}, protoErrf(ErrCodeCommand, "unknown command %q", string(verb))
	}
	min := 0 // the mandatory fields, then what may follow them
	if f.id {
		min++
	}
	if f.key || f.ttl {
		min++
	}
	max := min + f.opt
	if f.many {
		if nargs > min+maxBatch {
			return Command{}, protoErrf(ErrCodeTooMany, "%s batch of %d exceeds limit %d", string(verb), nargs-min, maxBatch)
		}
		min, max = min+1, min+maxBatch
	}
	if nargs < min || nargs > max {
		return Command{}, protoErrf(ErrCodeArgs, "%s takes %d-%d args, got %d", string(verb), min, max, nargs)
	}

	cmd := Command{Op: f.op}
	var perr *ProtoError
	var field T
	if f.id {
		field, rest = cut(rest)
		if cmd.ID, perr = parseUint("id", field); perr != nil {
			return Command{}, perr
		}
		nargs--
	}
	if f.many {
		if f.ttl {
			field, rest = cut(rest)
			if cmd.TTL, perr = parseMillis("ttl", field); perr != nil {
				return Command{}, perr
			}
			nargs--
		}
		// Duplicates are allowed on the wire — the service's key-order
		// canonicalization coalesces them, so a client built from a messy
		// key list stays balanced (see gls.LockMany).
		cmd.Keys = make([]uint64, nargs)
		for i := range cmd.Keys {
			field, rest = cut(rest)
			if cmd.Keys[i], perr = parseKey(field); perr != nil {
				return Command{}, perr
			}
		}
		return cmd, nil
	}
	if f.key {
		field, rest = cut(rest)
		if cmd.Key, perr = parseKey(field); perr != nil {
			return Command{}, perr
		}
		nargs--
	}
	if nargs >= 1 {
		field, rest = cut(rest)
		if cmd.TTL, perr = parseMillis("ttl", field); perr != nil {
			return Command{}, perr
		}
	}
	if nargs == 2 {
		if cmd.Timeout, perr = parseMillis("timeout", rest); perr != nil {
			return Command{}, perr
		}
	}
	return cmd, nil
}
