package mq

import "sync"

// msgDeque is an unbounded FIFO of messages backed by a linked chain
// of fixed-size blocks. It replaces the previous container/list ready
// list: a list allocated one element plus one interface box per
// enqueued message, which put two heap allocations on the publish hot
// path. Blocks amortize that to one pooled allocation per
// dequeBlockLen messages, and — unlike a growable ring — a deep
// offline backlog (the mobile buffering pattern) never pays an O(n)
// copy to grow, and releases memory block by block as it drains.
type msgDeque struct {
	head, tail *dequeBlock
	headIdx    int // index of the front element in head
	tailIdx    int // one past the last element in tail
	n          int
}

// dequeBlockLen is the block capacity: 256 messages ≈ 26 KiB, big
// enough to make pool traffic negligible, small enough to release
// backlog memory promptly.
const dequeBlockLen = 256

type dequeBlock struct {
	msgs [dequeBlockLen]Message
	next *dequeBlock
}

// blockPool recycles drained blocks. Every slot of a pooled block has
// been zeroed on pop, so the pool never pins message bodies.
var blockPool = sync.Pool{New: func() any { return new(dequeBlock) }}

// len returns the number of queued messages.
func (d *msgDeque) len() int { return d.n }

// pushBack appends a message at the tail. Taking a pointer keeps the
// hot path to a single struct copy (into the block slot).
func (d *msgDeque) pushBack(m *Message) {
	if d.tail == nil {
		b := blockPool.Get().(*dequeBlock)
		d.head, d.tail = b, b
		d.headIdx, d.tailIdx = 0, 0
	} else if d.tailIdx == dequeBlockLen {
		b := blockPool.Get().(*dequeBlock)
		d.tail.next = b
		d.tail = b
		d.tailIdx = 0
	}
	d.tail.msgs[d.tailIdx] = *m
	d.tailIdx++
	d.n++
}

// pushFront prepends a message at the head (nack requeue).
func (d *msgDeque) pushFront(m *Message) {
	if d.head == nil {
		b := blockPool.Get().(*dequeBlock)
		d.head, d.tail = b, b
		d.headIdx, d.tailIdx = dequeBlockLen, dequeBlockLen
	} else if d.headIdx == 0 {
		b := blockPool.Get().(*dequeBlock)
		b.next = d.head
		d.head = b
		d.headIdx = dequeBlockLen
	}
	d.headIdx--
	d.head.msgs[d.headIdx] = *m
	d.n++
}

// front returns a pointer to the head message, valid until the next
// mutation. ok is false when empty.
func (d *msgDeque) front() (*Message, bool) {
	if d.n == 0 {
		return nil, false
	}
	return &d.head.msgs[d.headIdx], true
}

// dropFront discards the head message without copying it out — the
// dispatch path has already copied it from front().
func (d *msgDeque) dropFront() {
	if d.n == 0 {
		return
	}
	d.head.msgs[d.headIdx] = Message{} // release body/header references
	d.headIdx++
	d.n--
	if d.n == 0 {
		// Fully drained: exactly one block remains; rewind it instead
		// of cycling through the pool on every empty transition.
		d.headIdx, d.tailIdx = 0, 0
		return
	}
	if d.headIdx == dequeBlockLen {
		b := d.head
		d.head = b.next
		b.next = nil
		blockPool.Put(b)
		d.headIdx = 0
	}
}

// reset drops every message and releases all blocks. The blocks still
// hold message references, so they go to the garbage collector, not
// back to the pool.
func (d *msgDeque) reset() {
	d.head, d.tail = nil, nil
	d.headIdx, d.tailIdx = 0, 0
	d.n = 0
}
