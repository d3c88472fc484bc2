package mq

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// The wire protocol is a stream of length-prefixed JSON frames:
// 4-byte big-endian length followed by a JSON-encoded frame. Requests
// carry a client-chosen correlation id echoed in the response;
// deliveries are pushed asynchronously with Op "deliver".

// maxFrameBytes bounds a single frame to protect against corrupt
// length prefixes.
const maxFrameBytes = 16 << 20

// smallFrameBytes is the largest payload read into one buffer sized
// from its length prefix. A larger payload's buffer grows only as its
// bytes arrive, so four bytes from a peer cannot make the reader
// allocate maxFrameBytes.
const smallFrameBytes = 64 << 10

// Frame ops.
const (
	opPublish      = "publish"
	opPublishBatch = "publish-batch"
	opConsume      = "consume"
	opCancel       = "cancel"
	opAck          = "ack"
	opNack         = "nack"
	opQueueStats   = "queue-stats"
	opOK           = "ok"
	opError        = "error"
	opDeliver      = "deliver"
	// opFlow is pushed by the server (no correlation id) when a queue
	// crosses its flow watermarks: Paused=true asks publishers to stop,
	// Paused=false resumes them. A snapshot of currently paused queues
	// is pushed right after accept so late connections learn the state.
	opFlow = "flow"
)

// frame is the single wire message shape; unused fields are omitted.
type frame struct {
	Op    string `json:"op"`
	Corr  uint64 `json:"corr,omitempty"`
	Error string `json:"error,omitempty"`

	Exchange    string            `json:"exchange,omitempty"`
	Queue       string            `json:"queue,omitempty"`
	RoutingKey  string            `json:"routingKey,omitempty"`
	Headers     map[string]string `json:"headers,omitempty"`
	Body        []byte            `json:"body,omitempty"`
	PublishedAt time.Time         `json:"publishedAt,omitempty"`
	Prefetch    int               `json:"prefetch,omitempty"`
	ConsumerID  uint64            `json:"consumerId,omitempty"`
	Tag         uint64            `json:"tag,omitempty"`
	Requeue     bool              `json:"requeue,omitempty"`
	Delivered   int               `json:"delivered,omitempty"`
	MessageID   uint64            `json:"messageId,omitempty"`
	Redelivered bool              `json:"redelivered,omitempty"`
	Stats       *QueueStats       `json:"stats,omitempty"`
	Items       []PublishItem     `json:"items,omitempty"`
	// Token is a publish idempotency token: a republish carrying a
	// token the broker has seen inside its dedup window returns the
	// original delivery count without enqueueing again.
	Token string `json:"token,omitempty"`
	// Paused carries the flow-control state of Queue in opFlow frames.
	Paused bool `json:"paused,omitempty"`
}

// writeJSONFrame encodes v and writes it as one length-prefixed frame,
// returning the bytes put on the wire (length prefix included) for
// traffic accounting. The prefix and payload go out in a single Write
// so a frame is atomic with respect to per-write fault injection (and
// one fewer syscall). Shared by the broker protocol (frame) and the
// replication protocol (ReplFrame).
func writeJSONFrame(w io.Writer, v any) (int, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("encode frame: %w", err)
	}
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	return w.Write(buf)
}

// readJSONFrame reads one length-prefixed frame into v, returning the
// bytes consumed from the wire (length prefix included).
func readJSONFrame(r *bufio.Reader, v any) (int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrameBytes {
		return len(lenBuf), fmt.Errorf("mq: frame of %d bytes exceeds limit", n)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return len(lenBuf), err
	}
	total := len(lenBuf) + int(n)
	if err := json.Unmarshal(payload, v); err != nil {
		return total, fmt.Errorf("decode frame: %w", err)
	}
	return total, nil
}

// readPayload reads exactly n bytes. A payload above smallFrameBytes
// is read a chunk at a time and joined once all of it has arrived, so
// a frame cut short costs the bytes that came plus one chunk.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= smallFrameBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	var chunks [][]byte
	for left := n; left > 0; {
		c := make([]byte, min(left, smallFrameBytes))
		if _, err := io.ReadFull(r, c); err != nil {
			if err == io.EOF && left < n {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		chunks = append(chunks, c)
		left -= len(c)
	}
	return bytes.Join(chunks, nil), nil
}

// writeFrame encodes and writes one broker frame.
func writeFrame(w io.Writer, f *frame) (int, error) {
	return writeJSONFrame(w, f)
}

// readFrame reads and decodes one broker frame.
func readFrame(r *bufio.Reader) (*frame, int, error) {
	var f frame
	n, err := readJSONFrame(r, &f)
	if err != nil {
		return nil, n, err
	}
	return &f, n, nil
}
