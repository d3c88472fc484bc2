package mq

import (
	"strings"
	"testing"
	"testing/quick"
)

// topicMatch reports whether a routing key matches a topic binding
// pattern, following the AMQP topic-exchange rules:
//
//   - patterns and keys are dot-separated words;
//   - "*" matches exactly one word;
//   - "#" matches zero or more words.
//
// Examples: "soundcity.*.noise" matches "soundcity.FR75013.noise";
// "soundcity.#" matches "soundcity" and "soundcity.a.b.c".
//
// It is the reference the compiled trie and the live fan-out are
// checked against: a plain recursive walk, short enough to trust.
func topicMatch(pattern, key string) bool {
	return topicMatchWords(splitWords(pattern), splitWords(key))
}

func topicMatchWords(pat, key []string) bool {
	for {
		switch {
		case len(pat) == 0:
			return len(key) == 0
		case pat[0] == "#":
			// "#" may absorb zero or more words.
			if topicMatchWords(pat[1:], key) {
				return true
			}
			if len(key) == 0 {
				return false
			}
			key = key[1:]
		case len(key) == 0:
			return false
		case pat[0] == "*" || pat[0] == key[0]:
			pat = pat[1:]
			key = key[1:]
		default:
			return false
		}
	}
}

func TestTopicMatch(t *testing.T) {
	tests := []struct {
		pattern string
		key     string
		want    bool
	}{
		// Exact matches.
		{"a.b.c", "a.b.c", true},
		{"a.b.c", "a.b.d", false},
		{"a.b", "a.b.c", false},
		{"a.b.c", "a.b", false},
		{"", "", true},
		{"", "a", false},
		// Single-word wildcard.
		{"a.*.c", "a.b.c", true},
		{"a.*.c", "a.xyz.c", true},
		{"a.*.c", "a.b.d", false},
		{"a.*.c", "a.c", false},     // * needs exactly one word
		{"a.*.c", "a.b.b.c", false}, // * matches exactly one
		{"*", "a", true},
		{"*", "a.b", false},
		{"*.*", "a.b", true},
		// Multi-word wildcard.
		{"#", "", true},
		{"#", "a", true},
		{"#", "a.b.c", true},
		{"a.#", "a", true},
		{"a.#", "a.b.c.d", true},
		{"a.#", "b.c", false},
		{"#.c", "c", true},
		{"#.c", "a.b.c", true},
		{"#.c", "a.b", false},
		{"a.#.c", "a.c", true},
		{"a.#.c", "a.x.y.c", true},
		{"a.#.c", "a.x.y", false},
		{"#.#", "a", true},
		// Crowd-sensing keys from the paper's topology.
		{"SC.client1.#", "SC.client1.obs.FR75013", true},
		{"SC.client1.#", "SC.client2.obs.FR75013", false},
		{"SC.*.feedback.FR75013", "SC.mob1.feedback.FR75013", true},
		{"SC.*.feedback.FR75013", "SC.mob1.feedback.FR92120", false},
		{"SC.*.*.FR75013", "SC.mob1.journey.FR75013", true},
	}
	for _, tt := range tests {
		t.Run(tt.pattern+"~"+tt.key, func(t *testing.T) {
			if got := topicMatch(tt.pattern, tt.key); got != tt.want {
				t.Fatalf("topicMatch(%q, %q) = %v, want %v", tt.pattern, tt.key, got, tt.want)
			}
		})
	}
}

// TestTopicMatchLiteralProperty: a pattern without wildcards matches
// exactly itself.
func TestTopicMatchLiteralProperty(t *testing.T) {
	f := func(words []uint8) bool {
		parts := make([]string, 0, len(words)%6)
		for i := 0; i < len(words)%6; i++ {
			parts = append(parts, string(rune('a'+int(words[i])%26)))
		}
		key := strings.Join(parts, ".")
		return topicMatch(key, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTopicMatchHashUniversal: "#" matches every key.
func TestTopicMatchHashUniversal(t *testing.T) {
	f := func(words []uint8) bool {
		parts := make([]string, 0, len(words)%8)
		for i := 0; i < len(words)%8; i++ {
			parts = append(parts, string(rune('a'+int(words[i])%26)))
		}
		return topicMatch("#", strings.Join(parts, "."))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTopicMatchStarArity: a pattern of n stars matches exactly keys
// of n words.
func TestTopicMatchStarArity(t *testing.T) {
	for n := 1; n <= 5; n++ {
		pattern := strings.TrimSuffix(strings.Repeat("*.", n), ".")
		for k := 1; k <= 6; k++ {
			key := strings.TrimSuffix(strings.Repeat("w.", k), ".")
			want := n == k
			if got := topicMatch(pattern, key); got != want {
				t.Fatalf("topicMatch(%q, %q) = %v, want %v", pattern, key, got, want)
			}
		}
	}
}
