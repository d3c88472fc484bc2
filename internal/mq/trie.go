package mq

import "strings"

// Compiled routing indexes. Every exchange keeps, next to its raw
// binding list, a structure that resolves "which destinations does
// this routing key reach" without scanning the bindings one by one:
//
//   - direct exchanges index bindings by exact pattern in a map, so a
//     publish is one map lookup;
//   - fanout exchanges keep the flat destination list;
//   - topic exchanges compile their patterns into a trie keyed by
//     dot-segment, so a publish walks O(len(key words)) trie edges
//     instead of matching every binding's pattern in turn.
//
// The trie is the pre-computed subscription index the paper's
// scalability lesson calls for (§6, "do scale the server side"): with
// one exchange and a handful of bindings per mobile client, the naive
// scan makes routing cost grow with the fleet while the trie keeps it
// proportional to the key length.
//
// topicMatch (topic_test.go) is the reference matcher; the property
// tests in trie_test.go assert the trie agrees with it on random
// patterns, including the `#` edge cases.

// dest is one binding destination: exactly one of toQueue/toExchange
// is set. Destinations are held by name, not pointer, so compiled
// indexes never outlive a deleted queue or exchange — names resolve
// against the live broker maps at publish time.
type dest struct {
	toQueue    string
	toExchange string
}

// trieNode is one segment position in the compiled topic trie.
// children holds literal-word edges; star is the "*" edge (exactly one
// word); hash is the "#" edge (zero or more words). dests are the
// bindings whose full pattern ends at this node.
type trieNode struct {
	children map[string]*trieNode
	star     *trieNode
	hash     *trieNode
	dests    []dest
}

// insert adds a binding's destination under its pattern words.
func (n *trieNode) insert(patWords []string, d dest) {
	cur := n
	for _, w := range patWords {
		switch w {
		case "*":
			if cur.star == nil {
				cur.star = &trieNode{}
			}
			cur = cur.star
		case "#":
			if cur.hash == nil {
				cur.hash = &trieNode{}
			}
			cur = cur.hash
		default:
			if cur.children == nil {
				cur.children = make(map[string]*trieNode)
			}
			next, ok := cur.children[w]
			if !ok {
				next = &trieNode{}
				cur.children[w] = next
			}
			cur = next
		}
	}
	cur.dests = append(cur.dests, d)
}

// match walks the trie over the key words and emits every destination
// whose pattern accepts the key. A destination reachable through
// several wildcard paths (e.g. "#.#") is emitted more than once; the
// caller deduplicates, which it must do anyway across bindings.
func (n *trieNode) match(key []string, emit func(dest)) {
	if len(key) == 0 {
		for _, d := range n.dests {
			emit(d)
		}
		// "#" accepts zero words, so trailing hash edges still
		// terminate here.
		if n.hash != nil {
			n.hash.match(nil, emit)
		}
		return
	}
	if c, ok := n.children[key[0]]; ok {
		c.match(key[1:], emit)
	}
	if n.star != nil {
		n.star.match(key[1:], emit)
	}
	if n.hash != nil {
		// "#" absorbs any number of leading words, including none.
		for i := 0; i <= len(key); i++ {
			n.hash.match(key[i:], emit)
		}
	}
}

// exIndex is an exchange's compiled routing index. Only the field for
// the exchange's type is populated.
type exIndex struct {
	all    []dest            // Fanout: every destination
	direct map[string][]dest // Direct: exact pattern -> destinations
	root   *trieNode         // Topic: compiled pattern trie
}

// newExIndex compiles the binding list for an exchange type.
func newExIndex(typ ExchangeType, bindings []binding) exIndex {
	var idx exIndex
	switch typ {
	case Fanout:
		idx.all = make([]dest, 0, len(bindings))
	case Direct:
		idx.direct = make(map[string][]dest, len(bindings))
	case Topic:
		idx.root = &trieNode{}
	}
	for _, bd := range bindings {
		idx.insert(typ, bd)
	}
	return idx
}

// insert adds one binding to the compiled index.
func (idx *exIndex) insert(typ ExchangeType, bd binding) {
	d := dest{toQueue: bd.toQueue, toExchange: bd.toExchange}
	switch typ {
	case Fanout:
		idx.all = append(idx.all, d)
	case Direct:
		idx.direct[bd.pattern] = append(idx.direct[bd.pattern], d)
	case Topic:
		idx.root.insert(splitWords(bd.pattern), d)
	}
}

// match emits every destination the key reaches on this exchange.
// keyWords is the pre-split key (shared scratch); key the raw string
// for the direct map lookup.
func (ex *exchange) match(key string, keyWords []string, emit func(dest)) {
	switch ex.typ {
	case Fanout:
		for _, d := range ex.idx.all {
			emit(d)
		}
	case Direct:
		for _, d := range ex.idx.direct[key] {
			emit(d)
		}
	case Topic:
		ex.idx.root.match(keyWords, emit)
	}
}

// reindex recompiles the exchange index from its binding list; called
// under the broker write lock after bindings are removed. Additions go
// through addBinding, which inserts incrementally.
func (ex *exchange) reindex() {
	ex.idx = newExIndex(ex.typ, ex.bindings)
}

// addBinding appends a binding and updates the compiled index in
// place (no full rebuild: provisioning N clients stays O(N), not
// O(N²), on the shared app exchange).
func (ex *exchange) addBinding(bd binding) {
	ex.bindings = append(ex.bindings, bd)
	ex.idx.insert(ex.typ, bd)
}

func splitWords(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ".")
}

// splitWordsInto splits a routing key into dst (reused scratch) to
// keep the resolve path free of per-publish slice allocations.
func splitWordsInto(dst []string, s string) []string {
	if s == "" {
		return dst
	}
	for {
		i := strings.IndexByte(s, '.')
		if i < 0 {
			return append(dst, s)
		}
		dst = append(dst, s[:i])
		s = s[i+1:]
	}
}
