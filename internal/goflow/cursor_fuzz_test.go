package goflow

import (
	"errors"
	"strings"
	"testing"
)

// FuzzDecodeCursor: DecodeCursor never panics on a token a client sends;
// it refuses what EncodeCursor cannot have made with ErrBadCursor; and
// the anchor it accepts is one EncodeCursor wraps into a token that
// decodes to it again.
func FuzzDecodeCursor(f *testing.F) {
	for _, id := range []string{"d1", "dzzzzzz", "kinds", "é/+?&=", strings.Repeat("x", 300)} {
		f.Add(EncodeCursor(id))
	}
	for _, bad := range []string{"", EncodeCursor(""), "v1:d1", "!!!", "djE6", "djE6ZDE=", "djE6ZDF"} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, token string) {
		id, err := DecodeCursor(token)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("DecodeCursor(%q) fails with %v, not ErrBadCursor", token, err)
			}
			return
		}
		if id == "" {
			t.Fatalf("DecodeCursor(%q) accepted an empty anchor", token)
		}
		again, err := DecodeCursor(EncodeCursor(id))
		if err != nil || again != id {
			t.Fatalf("anchor %q from %q re-encodes to one that decodes to %q, %v", id, token, again, err)
		}
	})
}
