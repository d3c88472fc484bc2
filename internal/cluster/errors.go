package cluster

import (
	"errors"
	"fmt"
)

// ErrStaleTerm is returned for writes against a deposed leader: a
// newer term exists, so acknowledging the write could lose it — the
// new leader's history does not include anything this node accepts
// from now on. Fencing is what extends the zero-acked-loss invariant
// across automatic failover: a partitioned old leader starts rejecting
// writes (its lease expires) strictly before a successor can win an
// election, so no client ever holds an ack the surviving history lacks.
var ErrStaleTerm = errors.New("cluster: stale term: leader deposed")

// NotLeaderError is the typed "writes go elsewhere" rejection. It
// matches errors.Is(err, ErrNotLeader) always, and additionally
// matches the wrapped cause (ErrStaleTerm on a fenced ex-leader).
// Leader/Addr, when known, tell a resilient client where to re-dial —
// the REST layer surfaces them as an X-Leader-Hint header on a 503.
type NotLeaderError struct {
	// Leader is the believed current leader's name ("" = unknown).
	Leader string
	// Addr is that leader's address ("" = unknown).
	Addr string
	// Err is the underlying cause: ErrNotLeader (a node that does not
	// lead) or ErrStaleTerm (a fenced, deposed leader).
	Err error
}

// Error formats the rejection with the redirect hint when present.
func (e *NotLeaderError) Error() string {
	cause := e.Err
	if cause == nil {
		cause = ErrNotLeader
	}
	switch {
	case e.Addr != "":
		return fmt.Sprintf("%v (current leader %s at %s)", cause, e.Leader, e.Addr)
	case e.Leader != "":
		return fmt.Sprintf("%v (current leader %s)", cause, e.Leader)
	}
	return cause.Error()
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *NotLeaderError) Unwrap() error {
	if e.Err == nil {
		return ErrNotLeader
	}
	return e.Err
}

// Is makes every NotLeaderError match ErrNotLeader, whatever the
// cause: a fenced leader is, operationally, not the leader.
func (e *NotLeaderError) Is(target error) bool { return target == ErrNotLeader }

// Hint returns the redirect target, preferring the address.
func (e *NotLeaderError) Hint() string {
	if e.Addr != "" {
		return e.Addr
	}
	return e.Leader
}
