package server

import (
	"strings"
	"testing"
	"time"
)

// TestParseCommandValid covers every verb's accepted forms.
func TestParseCommandValid(t *testing.T) {
	cases := []struct {
		line string
		want Command
	}{
		{"session", Command{Op: OpSession}},
		{"ping", Command{Op: OpPing}},
		{"stats", Command{Op: OpStats}},
		{"quit", Command{Op: OpQuit}},
		{"trylock 7", Command{Op: OpTryLock, Key: 7}},
		{"trylock 0x10 250", Command{Op: OpTryLock, Key: 16, TTL: 250 * time.Millisecond}},
		{"wait 1 7", Command{Op: OpWait, ID: 1, Key: 7}},
		{"wait 2 7 100", Command{Op: OpWait, ID: 2, Key: 7, TTL: 100 * time.Millisecond}},
		{"wait 3 7 100 50", Command{Op: OpWait, ID: 3, Key: 7, TTL: 100 * time.Millisecond, Timeout: 50 * time.Millisecond}},
		{"cancel 9", Command{Op: OpCancel, ID: 9}},
		{"unlock 7", Command{Op: OpUnlock, Key: 7}},
		{"renew 7", Command{Op: OpRenew, Key: 7}},
		{"renew 7 500", Command{Op: OpRenew, Key: 7, TTL: 500 * time.Millisecond}},
		{"token 0xff", Command{Op: OpToken, Key: 255}},
		{"trylockmany 100 1 2 3", Command{Op: OpTryLockMany, TTL: 100 * time.Millisecond, Keys: []uint64{1, 2, 3}}},
		{"trylockmany 0 5 5", Command{Op: OpTryLockMany, Keys: []uint64{5, 5}}}, // dupes allowed; service coalesces
		{"lockmany 4 100 1 2", Command{Op: OpLockMany, ID: 4, TTL: 100 * time.Millisecond, Keys: []uint64{1, 2}}},
		{"unlockmany 1 2 3", Command{Op: OpUnlockMany, Keys: []uint64{1, 2, 3}}},
	}
	for _, tc := range cases {
		got, perr := ParseCommand(tc.line, 0)
		if perr != nil {
			t.Errorf("ParseCommand(%q): unexpected error %v", tc.line, perr)
			continue
		}
		if got.Op != tc.want.Op || got.ID != tc.want.ID || got.Key != tc.want.Key ||
			got.TTL != tc.want.TTL || got.Timeout != tc.want.Timeout {
			t.Errorf("ParseCommand(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
		if len(got.Keys) != len(tc.want.Keys) {
			t.Errorf("ParseCommand(%q) keys = %v, want %v", tc.line, got.Keys, tc.want.Keys)
			continue
		}
		for i := range got.Keys {
			if got.Keys[i] != tc.want.Keys[i] {
				t.Errorf("ParseCommand(%q) keys = %v, want %v", tc.line, got.Keys, tc.want.Keys)
				break
			}
		}
	}
}

// TestParseCommandMalformed covers the refusal paths: every case must
// produce the named error code, never a command and never a panic.
func TestParseCommandMalformed(t *testing.T) {
	cases := []struct {
		line string
		code string
	}{
		{"", ErrCodeCommand},           // empty line → empty field
		{" ", ErrCodeCommand},          // lone space
		{"trylock  7", ErrCodeCommand}, // doubled space → empty field
		{" trylock 7", ErrCodeCommand}, // leading space
		{"trylock 7 ", ErrCodeCommand}, // trailing space
		{"nonsense", ErrCodeCommand},   // unknown verb
		{"TRYLOCK 7", ErrCodeCommand},  // verbs are case-sensitive
		{"session 1", ErrCodeArgs},     // no-arg verb with args
		{"ping x", ErrCodeArgs},
		{"trylock", ErrCodeArgs},           // missing key
		{"trylock 7 10 20", ErrCodeArgs},   // too many args
		{"wait 1", ErrCodeArgs},            // missing key
		{"wait 1 7 10 20 30", ErrCodeArgs}, // too many args
		{"cancel", ErrCodeArgs},
		{"unlock", ErrCodeArgs},
		{"token", ErrCodeArgs},
		{"trylockmany 100", ErrCodeArgs}, // no keys
		{"lockmany 1 100", ErrCodeArgs},  // no keys
		{"unlockmany", ErrCodeArgs},
		{"trylock 0", ErrCodeKey}, // zero key is GLS's NULL
		{"trylock abc", ErrCodeKey},
		{"trylock -1", ErrCodeKey},
		{"trylock 18446744073709551616", ErrCodeKey}, // 2^64 overflows
		{"unlockmany 1 0 3", ErrCodeKey},             // zero key mid-batch
		{"wait x 7", ErrCodeNumber},                  // bad id
		{"cancel x", ErrCodeNumber},
		{"trylock 7 x", ErrCodeNumber},                    // bad ttl
		{"wait 1 7 10 x", ErrCodeNumber},                  // bad timeout
		{"trylock 7 99999999999999999999", ErrCodeNumber}, // ttl > 2^64
		{"trylock 7 18446744073709551615", ErrCodeNumber}, // ttl overflows Duration
		{"trylockmany x 1 2", ErrCodeNumber},
	}
	for _, tc := range cases {
		_, perr := ParseCommand(tc.line, 0)
		if perr == nil {
			t.Errorf("ParseCommand(%q): accepted, want %s error", tc.line, tc.code)
			continue
		}
		if perr.Code != tc.code {
			t.Errorf("ParseCommand(%q): code %s (%s), want %s", tc.line, perr.Code, perr.Detail, tc.code)
		}
	}
}

// TestParseCommandBatchLimit checks the toomany refusals at the boundary
// for each batched verb.
func TestParseCommandBatchLimit(t *testing.T) {
	keys := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = "7"
		}
		return strings.Join(parts, " ")
	}
	const max = 4
	ok := []string{
		"trylockmany 0 " + keys(max),
		"lockmany 1 0 " + keys(max),
		"unlockmany " + keys(max),
	}
	for _, line := range ok {
		if _, perr := ParseCommand(line, max); perr != nil {
			t.Errorf("ParseCommand(%q, max=%d): unexpected error %v", line, max, perr)
		}
	}
	over := []string{
		"trylockmany 0 " + keys(max+1),
		"lockmany 1 0 " + keys(max+1),
		"unlockmany " + keys(max+1),
	}
	for _, line := range over {
		_, perr := ParseCommand(line, max)
		if perr == nil || perr.Code != ErrCodeTooMany {
			t.Errorf("ParseCommand(%q, max=%d): got %v, want toomany", line, max, perr)
		}
	}
}

// TestOpString pins the wire spellings (clients and logs rely on them).
func TestOpString(t *testing.T) {
	for op := OpSession; op <= OpQuit; op++ {
		name := op.String()
		if name == "invalid" {
			t.Fatalf("op %d stringifies as invalid", op)
		}
		// Round-trip: the op's name must parse back to the same op (padding
		// the argument list with plausible operands).
		line := name
		switch op {
		case OpTryLock, OpUnlock, OpRenew, OpToken:
			line += " 7"
		case OpWait:
			line += " 1 7"
		case OpCancel:
			line += " 1"
		case OpTryLockMany:
			line += " 0 7"
		case OpLockMany:
			line += " 1 0 7"
		case OpUnlockMany:
			line += " 7"
		}
		cmd, perr := ParseCommand(line, 0)
		if perr != nil {
			t.Errorf("ParseCommand(%q): %v", line, perr)
			continue
		}
		if cmd.Op != op {
			t.Errorf("ParseCommand(%q).Op = %v, want %v", line, cmd.Op, op)
		}
	}
	if OpInvalid.String() != "invalid" {
		t.Errorf("OpInvalid.String() = %q", OpInvalid.String())
	}
}

// TestProtoError pins the Error rendering handlers rely on for logs.
func TestProtoError(t *testing.T) {
	perr := protoErrf(ErrCodeKey, "bad key %q", "x")
	if got := perr.Error(); got != `glsd: key: bad key "x"` {
		t.Errorf("Error() = %q", got)
	}
}
