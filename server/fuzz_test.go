package server

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseCommand asserts the parser is total: any line either yields a
// well-formed Command or a ProtoError with a known code — never a panic,
// never a half-parsed command, never an accepted zero key. The seed corpus
// (testdata/fuzz/FuzzParseCommand) pins one input per verb plus the
// historically fiddly shapes: doubled spaces, hex keys, overflow-boundary
// numbers, and multi-key lines, which no verb accepts.
func FuzzParseCommand(f *testing.F) {
	seeds := []string{
		"session",
		"ping",
		"stats",
		"quit",
		"trylock 7",
		"trylock 0xdeadbeef 250",
		"wait 1 7 100 50",
		"cancel 9",
		"unlock 7",
		"renew 7 500",
		"token 0xff",
		"trylockmany 100 1 2 3",
		"lockmany 4 100 1 2",
		"unlockmany 1 2 3",
		"",
		" ",
		"trylock  7",
		"trylock 0",
		"trylock 18446744073709551615",
		"trylock 18446744073709551616",
		"trylock 7 18446744073709551615",
		"wait 1 7 10 x",
		"unlockmany " + strings.Repeat("7 ", 64) + "7",
		"TRYLOCK 7",
		"trylock\t7",
		"trylock 7\r",
		"\x00",
		"trylock \x007",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	knownCodes := map[string]bool{
		ErrCodeCommand: true, ErrCodeArgs: true, ErrCodeKey: true,
		ErrCodeNumber: true,
	}
	f.Fuzz(func(t *testing.T, line string) {
		cmd, perr := ParseCommand(line, 0)
		// The connection reader gives the same parser body the line as bytes.
		if bcmd, bperr := parseCommand([]byte(line)); !reflect.DeepEqual(cmd, bcmd) || !reflect.DeepEqual(perr, bperr) {
			t.Fatalf("ParseCommand(%q) = %+v, %v as a string but %+v, %v as bytes", line, cmd, perr, bcmd, bperr)
		}
		if perr != nil {
			if !knownCodes[perr.Code] {
				t.Fatalf("ParseCommand(%q): unknown error code %q", line, perr.Code)
			}
			if cmd.Op != 0 {
				t.Fatalf("ParseCommand(%q): error %v but op %v", line, perr, cmd.Op)
			}
			return
		}
		// Accepted commands must be internally consistent.
		if cmd.Op == 0 {
			t.Fatalf("ParseCommand(%q): accepted with the zero Op", line)
		}
		if cmd.Key == 0 {
			switch cmd.Op {
			case OpTryLock, OpWait, OpUnlock, OpRenew, OpToken:
				t.Fatalf("ParseCommand(%q): keyed op %v accepted zero key", line, cmd.Op)
			}
		}
		if cmd.TTL < 0 || cmd.Timeout < 0 {
			t.Fatalf("ParseCommand(%q): negative duration (ttl=%v timeout=%v)", line, cmd.TTL, cmd.Timeout)
		}
		// An accepted line is single-space-joined non-empty fields, so
		// doubled, leading or trailing spaces can never have been accepted.
		if strings.Contains(line, "  ") || strings.HasPrefix(line, " ") || strings.HasSuffix(line, " ") {
			t.Fatalf("ParseCommand(%q): accepted irregular spacing", line)
		}
	})
}
