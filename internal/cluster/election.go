package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// Lease-based leader election. Node is the package's one way to
// replicate: every member of a replication group runs one, and the
// leader and follower halves of log shipping (leader.go, follower.go,
// replserver.go, snapshot.go) are its internals. A Node owns one
// listener speaking the whole replication protocol (fetch streams and
// snapshot transfers dispatch into its leader while it leads; votes
// and pings are answered by the node itself), plus a state machine
// driven by a single tick loop.
//
// The lease rides on the fetch/ack protocol — no separate heartbeat
// channel. A leader's lease is "a quorum of followers fetched from me
// recently": every fetch refreshes that follower's contact time, and
// when majority-1 fresh contacts cannot be counted within LeaseTTL the
// leader fences itself (it can no longer prove a successor has not
// been elected). A follower's lease is "the leader answered my fetch
// recently": every batch frame — even an empty heartbeat — refreshes
// it, and a follower that has heard nothing for electAfter (2×TTL)
// suspects the leader and becomes a candidate.
//
// Safety comes from three interlocking rules:
//
//  1. A voter whose own lease is still valid denies every vote — a
//     healthy leader cannot be deposed by an impatient candidate.
//  2. A vote is granted only to a candidate whose (durable LSN, name)
//     is at least the voter's — with the leader's ack quorum at
//     majority-1, every acknowledged write lives on a member of any
//     possible election majority, whose vote denial blocks behind
//     candidates.
//  3. The old leader fences at LeaseTTL, strictly before any follower
//     candidacy at 2×TTL can succeed — so by the time a successor can
//     win, the old timeline has already stopped acknowledging writes.
//
// Durable election state (term, vote, led-this-term) lives in the WAL
// directory's node.manifest (wal.Manifest): a node that led and was
// deposed may hold an unacknowledged log tail, so the Led flag forces
// its next incarnation to bootstrap from the new leader's snapshot
// instead of trusting the local log.

// NodeState is the election state machine position.
type NodeState int32

const (
	// StateFollowing: tailing a leader, or probing for one.
	StateFollowing NodeState = iota
	// StateCandidate: soliciting votes (transient).
	StateCandidate
	// StateLeading: serving writes and shipping the log.
	StateLeading
	// StateFenced: deposed; rejects writes with ErrStaleTerm until the
	// process restarts. Terminal — a fenced ex-leader's log may hold a
	// divergent tail, so rejoining the group means restarting the node,
	// which the Led manifest flag routes through a snapshot bootstrap.
	StateFenced
)

// String returns the state name for logs.
func (s NodeState) String() string {
	switch s {
	case StateFollowing:
		return "following"
	case StateCandidate:
		return "candidate"
	case StateLeading:
		return "leading"
	case StateFenced:
		return "fenced"
	default:
		return fmt.Sprintf("NodeState(%d)", int32(s))
	}
}

// NodeOptions configure StartNode.
type NodeOptions struct {
	// Name is this member's stable identity. Required.
	Name string
	// Peers maps every OTHER member's name to its replication address.
	// The group size is len(Peers)+1; majorities derive from it.
	Peers map[string]string
	// Listener is this member's replication listener. Required.
	Listener net.Listener
	// AdvertiseAddr is the address peers should dial to reach this
	// member (default: the listener address).
	AdvertiseAddr string
	// LeaseTTL is the leader lease duration (default 2s). Followers
	// suspect the leader after 2×TTL without contact; the leader
	// fences itself after TTL without a quorum of follower contacts.
	// Replication heartbeats run at TTL/4, session retries at TTL/8,
	// and a silent follower's ack stops pinning the leader's log after
	// 10×TTL.
	LeaseTTL time.Duration
	// OnLead fires (from the node's tick goroutine) after this node
	// wins an election and its leader engine is serving — the server
	// wiring starts ingest here.
	OnLead func(term uint64)
	// Logf receives the node's election and replication lines; nil
	// discards them.
	Logf func(format string, args ...any)
	// Metrics receives cluster counters when non-nil.
	Metrics *Metrics

	// ackTimeout bounds how long a write waits for its follower quorum
	// while this node leads (0 = ackTimeout, 5s; the chaos tests
	// shorten it). The quorum is majority-1 of the group — the minimum
	// that makes the zero-acked-loss invariant hold across elections
	// (rule 2 above).
	ackTimeout time.Duration
	// dial opens replication connections: TCP with a LeaseTTL-bounded
	// timeout unless the chaos tests route it through a partitionable
	// network.
	dial func(addr string) (net.Conn, error)
	// seed seeds the candidacy jitter (0 = derived from the name), so
	// the chaos tests reproduce by seed.
	seed int64
}

// Node is one member of a self-healing replication group.
type Node struct {
	local *storage.Local
	opt   NodeOptions

	quit chan struct{}
	kick chan struct{} // ForceElection
	wg   sync.WaitGroup
	rnd  *rand.Rand // tick goroutine only

	mu       sync.Mutex
	state    NodeState
	term     uint64
	votedFor string
	// led is the durable divergence marker: this node has led and may
	// hold a log tail the group never acknowledged. While set, follows
	// force a snapshot bootstrap and candidacies are refused (a raw LSN
	// comparison is meaningless across diverged timelines). Cleared
	// only when a snapshot restore replaces the local history.
	led        bool
	leaderName string
	leaderAddr string
	leader     *leader
	follower   *follower
	// lastFollower is the most recently detached follower: a won
	// election stops it (again — stop is idempotent) and counts the
	// promotion.
	lastFollower *follower
	staleSince   time.Time // when we last had (or lost) leader contact
	// lastGrant renews the voter's lease: having just voted a leader
	// in, this node denies other candidacies until the winner's
	// replication stream takes over as the lease signal — closing the
	// usurpation window between an election and follower attach.
	lastGrant time.Time
	// leadSince grants a fresh leader grace before the self-fencing
	// check bites: followers need up to a probe cycle to attach, and
	// until they do freshContacts is legitimately zero. The grace
	// (1.5×TTL) is strictly shorter than the 2×TTL follower lease, so
	// a leader that really is cut off still fences before any
	// successor can be elected.
	leadSince time.Time
	closed    bool

	conns map[net.Conn]struct{}
}

// StartNode loads durable election state and joins the group: it
// starts Following, finds (or elects) a leader, and from then on heals
// itself through leader failures with no operator action.
func StartNode(local *storage.Local, opt NodeOptions) (*Node, error) {
	if local.WAL() == nil {
		return nil, errors.New("cluster: node requires a WAL-backed engine")
	}
	if opt.Name == "" {
		return nil, errors.New("cluster: node needs a name")
	}
	if opt.Listener == nil {
		return nil, errors.New("cluster: node needs a replication listener")
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 2 * time.Second
	}
	if opt.AdvertiseAddr == "" {
		opt.AdvertiseAddr = opt.Listener.Addr().String()
	}
	if opt.dial == nil {
		ttl := opt.LeaseTTL
		opt.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, ttl)
		}
	}
	seed := opt.seed
	if seed == 0 {
		for _, c := range opt.Name {
			seed = seed*131 + int64(c)
		}
	}
	man, _, err := wal.LoadManifest(local.WAL().Dir())
	if err != nil {
		return nil, err
	}
	n := &Node{
		local:      local,
		opt:        opt,
		quit:       make(chan struct{}),
		kick:       make(chan struct{}, 1),
		rnd:        rand.New(rand.NewSource(seed)),
		state:      StateFollowing,
		term:       man.Term,
		votedFor:   man.VotedFor,
		led:        man.Led,
		staleSince: time.Now(),
		conns:      map[net.Conn]struct{}{},
	}
	if m := opt.Metrics; m != nil {
		m.Term.Set(float64(n.term))
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.tickLoop()
	return n, nil
}

// majority is the vote quorum for a group of n members.
func majority(n int) int { return n/2 + 1 }

// electAfter is how long a follower waits without leader contact
// before candidacy — double the leader's self-fencing TTL, so the old
// timeline is fenced before a new one can be chosen.
func (n *Node) electAfter() time.Duration { return 2 * n.opt.LeaseTTL }

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// ForceElection triggers an immediate candidacy, bypassing the lease
// wait — the SIGHUP manual override. No-op while leading or fenced.
func (n *Node) ForceElection() {
	select {
	case n.kick <- struct{}{}:
	default:
	}
}

// Engine exposes the node as a storage engine: reads always serve the
// local replica; writes go through the leader's commit log when leading
// (where fencing applies) and fail with a typed, hint-carrying
// NotLeaderError otherwise.
func (n *Node) Engine() storage.Engine { return &nodeEngine{Local: n.local, n: n} }

// Close stops the node and closes the local engine.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	f, l := n.follower, n.leader
	n.follower, n.leader = nil, nil
	for c := range n.conns {
		_ = c.Close()
	}
	n.mu.Unlock()
	close(n.quit)
	_ = n.opt.Listener.Close()
	if f != nil {
		f.stop()
	}
	n.wg.Wait()
	if l != nil {
		l.close()
	}
	return n.local.Close()
}

// logf writes a diagnostic line; a nil Logf discards it.
func (n *Node) logf(format string, args ...any) {
	if n.opt.Logf != nil {
		n.opt.Logf(format, args...)
	}
}

// persistLocked saves the durable election state; the caller holds mu.
// Persist-before-act: a vote, candidacy or win that is not on disk
// before the wire sees it could be forgotten by a restart and repeated
// (two votes in one term), so those callers back out on an error. A
// term adopted in memory may stay there when its save fails — terms
// only rise — and the failure is logged here.
func (n *Node) persistLocked() error {
	if m := n.opt.Metrics; m != nil {
		m.Term.Set(float64(n.term))
	}
	err := wal.SaveManifest(n.local.WAL().Dir(), wal.Manifest{
		Term: n.term, VotedFor: n.votedFor, Led: n.led,
	})
	if err != nil {
		n.logf("cluster: node %s: cannot persist election state at term %d: %v", n.opt.Name, n.term, err)
	}
	return err
}

// ---- tick loop: lease checks, probing, candidacy ----

func (n *Node) tickLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.opt.LeaseTTL / 4)
	defer ticker.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-ticker.C:
			n.tick(false)
		case <-n.kick:
			n.tick(true)
		}
	}
}

func (n *Node) tick(force bool) {
	n.mu.Lock()
	state := n.state
	n.mu.Unlock()
	switch state {
	case StateLeading:
		n.checkLeaderLease()
	case StateFollowing:
		n.checkFollowerLease(force)
	case StateFenced:
		// Terminal: a fenced node only answers votes and pings.
	}
}

// checkLeaderLease self-fences a leader that cannot count a quorum of
// fresh follower contacts: it can no longer prove no successor is
// being elected, and rule 3 requires it to stop acknowledging writes
// before one can win.
func (n *Node) checkLeaderLease() {
	n.mu.Lock()
	l := n.leader
	need := majority(len(n.opt.Peers)+1) - 1
	term := n.term
	grace := time.Since(n.leadSince) < 3*n.opt.LeaseTTL/2
	n.mu.Unlock()
	if l == nil || need <= 0 || grace {
		return // singleton group, or followers still attaching
	}
	if l.freshContacts(n.opt.LeaseTTL) >= need {
		return
	}
	n.logf("cluster: node %s: leader lease expired at term %d (quorum contact lost); fencing", n.opt.Name, term)
	l.depose(term, "", "") // OnDepose moves the state machine to Fenced
}

// checkFollowerLease watches the leader from below: a silent leader is
// dropped, a missing leader is probed for, and when no leader has been
// heard from for electAfter, the node runs for the job itself.
func (n *Node) checkFollowerLease(force bool) {
	now := time.Now()
	n.mu.Lock()
	f := n.follower
	if f != nil {
		if contact := f.lastContact(); now.Sub(contact) > n.electAfter() {
			n.follower = nil
			n.lastFollower = f
			n.leaderName, n.leaderAddr = "", ""
			n.staleSince = contact
			n.mu.Unlock()
			f.stop()
			n.logf("cluster: node %s: leader silent for %v; probing for a successor", n.opt.Name, now.Sub(contact))
		} else if !force {
			n.mu.Unlock()
			return // healthy
		} else {
			// Manual override: abandon the current leader and run.
			n.follower = nil
			n.lastFollower = f
			n.leaderName, n.leaderAddr = "", ""
			n.staleSince = now.Add(-n.electAfter())
			n.mu.Unlock()
			f.stop()
		}
	} else {
		n.mu.Unlock()
	}
	if force {
		// Manual override: no probing, no jitter, no pre-vote — run now.
		n.election(true)
		return
	}
	// No leader attached. Ask the group who leads now.
	if name, addr, term := n.probe(); name != "" && name != n.opt.Name {
		n.adoptLeader(name, addr, term)
		return
	}
	n.mu.Lock()
	stale := now.Sub(n.staleSince)
	n.mu.Unlock()
	if stale <= n.electAfter() {
		return
	}
	// Randomized candidacy delay de-synchronizes competing candidates
	// (the pre-vote LSN/name ordering resolves most races already).
	jitter := time.Duration(n.rnd.Int63n(int64(n.opt.LeaseTTL / 4)))
	select {
	case <-time.After(jitter):
	case <-n.quit:
		return
	}
	n.election(false)
}

// probe pings every peer and returns the highest-term FIRST-HAND
// leader claim — a peer saying "I lead", never "I believe X leads".
// Second-hand beliefs go stale exactly when they matter most (every
// surviving follower still names the dead leader right after it
// died), so trusting them would re-adopt a corpse in a loop.
func (n *Node) probe() (name, addr string, term uint64) {
	type claim struct {
		name, addr string
		term       uint64
	}
	results := make(chan claim, len(n.opt.Peers))
	for peerName, peerAddr := range n.opt.Peers {
		go func(peerName, peerAddr string) {
			resp, err := n.roundTrip(peerAddr, &mq.ReplFrame{Op: mq.ReplOpPing, Term: n.Term(), Follower: n.opt.Name})
			if err != nil || resp.Op != mq.ReplOpPingResp || resp.LeaderName != peerName {
				results <- claim{}
				return
			}
			results <- claim{name: resp.LeaderName, addr: resp.LeaderAddr, term: resp.Term}
		}(peerName, peerAddr)
	}
	var best claim
	for range n.opt.Peers {
		c := <-results
		if c.name != "" && (best.name == "" || c.term > best.term) {
			best = c
		}
	}
	return best.name, best.addr, best.term
}

// roundTrip sends one frame to addr and reads one response, bounded by
// the lease TTL.
func (n *Node) roundTrip(addr string, req *mq.ReplFrame) (*mq.ReplFrame, error) {
	nc, err := n.opt.dial(addr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = nc.Close() }()
	_ = nc.SetDeadline(time.Now().Add(n.opt.LeaseTTL))
	if _, err := mq.WriteReplFrame(nc, req); err != nil {
		return nil, err
	}
	resp, _, err := mq.ReadReplFrame(bufio.NewReader(nc))
	return resp, err
}

// adoptLeader starts (or retargets) the follower at the discovered
// leader.
func (n *Node) adoptLeader(name, addr string, term uint64) {
	if addr == "" {
		addr = n.opt.Peers[name]
	}
	if addr == "" {
		return
	}
	n.mu.Lock()
	if n.closed || n.state != StateFollowing || n.follower != nil {
		n.mu.Unlock()
		return
	}
	n.adoptTermLocked(term)
	n.leaderName, n.leaderAddr = name, addr
	fterm := n.term
	forceSnap := n.led // divergence marker: resync through a snapshot
	n.mu.Unlock()

	f, err := startFollower(n.local, followerOptions{
		Name:          n.opt.Name,
		Addr:          addr,
		Dial:          n.opt.dial,
		RetryInterval: n.opt.LeaseTTL / 8,
		Term:          fterm,
		OnTerm:        n.observeWireTerm,
		OnSnapshot:    n.onSnapshotRestored,
		ForceSnapshot: forceSnap,
		Logf:          n.logf,
		Metrics:       n.opt.Metrics,
	})
	if err != nil {
		n.logf("cluster: node %s: cannot follow %s at %s: %v", n.opt.Name, name, addr, err)
		return
	}
	n.logf("cluster: node %s: following %s at %s (term %d)", n.opt.Name, name, addr, fterm)
	n.mu.Lock()
	if n.closed || n.state != StateFollowing {
		n.mu.Unlock()
		f.stop()
		return
	}
	n.follower = f
	n.lastFollower = nil
	n.mu.Unlock()
}

// observeWireTerm records a higher term the follower saw on the wire.
func (n *Node) observeWireTerm(term uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.adoptTermLocked(term)
}

// adoptTermLocked raises the term to one seen on the wire, with no vote
// cast in it yet; the caller holds mu. The save is best effort: a term
// only in memory is safe to act on because terms only rise, and
// persistLocked logs the failure.
func (n *Node) adoptTermLocked(term uint64) {
	if term > n.term {
		n.term, n.votedFor = term, ""
		_ = n.persistLocked()
	}
}

// onSnapshotRestored fires when the follower finished a snapshot
// bootstrap: the local history is now exactly the leader's, so the
// divergence marker can finally come down and this node may stand in
// elections again.
func (n *Node) onSnapshotRestored(lsn uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.led {
		n.led = false
		// Best effort: a Led the disk still holds costs one more
		// snapshot bootstrap after a restart, nothing else.
		_ = n.persistLocked()
	}
}

// ---- candidacy ----

// preVote polls the group with the prospective term without anyone
// committing state: a real candidacy (and its term increment) only
// proceeds when a majority says it would grant. An isolated node's
// pre-votes go unanswered, so a long partition cannot inflate the
// term and depose a healthy leader on heal.
func (n *Node) preVote(term, lastLSN uint64) bool {
	grants := 1 // self
	type answer struct {
		granted bool
		term    uint64
	}
	results := make(chan answer, len(n.opt.Peers))
	for _, addr := range n.opt.Peers {
		go func(addr string) {
			resp, err := n.roundTrip(addr, &mq.ReplFrame{
				Op: mq.ReplOpVote, Term: term, Candidate: n.opt.Name,
				LastLSN: lastLSN, PreVote: true,
			})
			if err != nil || resp.Op != mq.ReplOpVoteResp {
				results <- answer{}
				return
			}
			results <- answer{granted: resp.Granted, term: resp.Term}
		}(addr)
	}
	var higher uint64
	for range n.opt.Peers {
		a := <-results
		if a.granted {
			grants++
		} else if a.term > higher {
			higher = a.term
		}
	}
	if grants >= majority(len(n.opt.Peers)+1) {
		return true
	}
	// A denial that revealed a higher term still teaches us something.
	n.observeWireTerm(higher)
	return false
}

// election runs one candidacy round from the tick goroutine. force
// marks an operator-initiated candidacy: pre-vote is skipped and
// voters waive leader-stickiness (but never the log-freshness rule).
func (n *Node) election(force bool) {
	n.mu.Lock()
	if n.closed || n.state == StateLeading || n.state == StateFenced || n.follower != nil {
		n.mu.Unlock()
		return
	}
	if n.led && len(n.opt.Peers) > 0 {
		// A past leadership left a possibly-divergent tail; until a
		// snapshot bootstrap replaces it, this node's LSN cannot be
		// compared with anyone's and it must not stand.
		n.mu.Unlock()
		n.logf("cluster: node %s: skipping candidacy (unresynced ex-leader)", n.opt.Name)
		return
	}
	prospective := n.term + 1
	n.mu.Unlock()
	if !force && len(n.opt.Peers) > 0 && !n.preVote(prospective, n.local.WAL().DurableLSN()) {
		return
	}
	n.mu.Lock()
	if n.closed || n.state != StateFollowing || n.follower != nil {
		n.mu.Unlock()
		return
	}
	n.term++
	n.votedFor = n.opt.Name
	if n.persistLocked() != nil {
		// A self-vote the disk does not hold is not a candidacy.
		n.votedFor = ""
		n.mu.Unlock()
		return
	}
	n.state = StateCandidate
	term := n.term
	n.mu.Unlock()

	lastLSN := n.local.WAL().DurableLSN()
	n.logf("cluster: node %s: candidate at term %d (durable lsn %d)", n.opt.Name, term, lastLSN)
	votes := 1 // self
	var higher uint64
	type result struct {
		granted bool
		term    uint64
	}
	results := make(chan result, len(n.opt.Peers))
	for _, addr := range n.opt.Peers {
		go func(addr string) {
			resp, err := n.roundTrip(addr, &mq.ReplFrame{
				Op: mq.ReplOpVote, Term: term, Candidate: n.opt.Name,
				LastLSN: lastLSN, Forced: force,
			})
			if err != nil || resp.Op != mq.ReplOpVoteResp {
				results <- result{}
				return
			}
			results <- result{granted: resp.Granted, term: resp.Term}
		}(addr)
	}
	for range n.opt.Peers {
		r := <-results
		if r.granted {
			votes++
		} else if r.term > higher {
			higher = r.term
		}
	}
	if votes >= majority(len(n.opt.Peers)+1) {
		n.lead(term)
		return
	}
	n.logf("cluster: node %s: election at term %d lost (%d votes)", n.opt.Name, term, votes)
	n.mu.Lock()
	if n.state == StateCandidate {
		n.state = StateFollowing
	}
	n.adoptTermLocked(higher)
	n.mu.Unlock()
}

// lead installs this node as the leader for term: persist the Led
// divergence marker, stop the replica's follower (if it was following),
// build the leader over the node's Local, announce, and hand the write
// path to the caller via OnLead.
func (n *Node) lead(term uint64) {
	n.mu.Lock()
	if n.closed || n.state != StateCandidate || n.term != term {
		// The election was overtaken mid-flight (a vote granted to a
		// higher-term competitor, say); never strand the node in
		// Candidate — no tick path would ever move it again.
		if n.state == StateCandidate {
			n.state = StateFollowing
		}
		n.mu.Unlock()
		return
	}
	// Led goes to disk before the first write can: a restart that
	// forgot it would trust a log tail the group may never have
	// acknowledged.
	led := n.led
	n.led = true
	if n.persistLocked() != nil {
		n.led = led
		n.state = StateFollowing
		n.mu.Unlock()
		return
	}
	f := n.follower
	if f == nil {
		f = n.lastFollower
	}
	n.follower, n.lastFollower = nil, nil
	n.mu.Unlock()
	if f != nil {
		f.stop()
	}
	ldr, err := newLeader(n.local, leaderOptions{
		SyncFollowers: majority(len(n.opt.Peers)+1) - 1,
		AckTimeout:    n.opt.ackTimeout,
		Heartbeat:     n.opt.LeaseTTL / 4,
		Term:          term,
		OnDepose:      n.onDeposed,
		AckRetention:  10 * n.opt.LeaseTTL,
		Metrics:       n.opt.Metrics,
	})
	if err != nil {
		n.logf("cluster: node %s: cannot start leader engine: %v", n.opt.Name, err)
		n.mu.Lock()
		if n.state == StateCandidate {
			n.state = StateFollowing
		}
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ldr.close()
		return
	}
	n.state = StateLeading
	n.leader = ldr
	n.leadSince = time.Now()
	n.leaderName, n.leaderAddr = n.opt.Name, n.opt.AdvertiseAddr
	n.mu.Unlock()
	if m := n.opt.Metrics; m != nil {
		m.Elections.Inc()
		if f != nil {
			m.Promotions.Inc()
		}
	}
	n.logf("cluster: node %s: leading at term %d", n.opt.Name, term)
	// Announce, so followers retarget without waiting out a probe
	// cycle.
	for _, addr := range n.opt.Peers {
		go func(addr string) {
			_, _ = n.roundTrip(addr, &mq.ReplFrame{
				Op: mq.ReplOpPing, Term: term,
				LeaderName: n.opt.Name, LeaderAddr: n.opt.AdvertiseAddr,
			})
		}(addr)
	}
	if n.opt.OnLead != nil {
		n.opt.OnLead(term)
	}
}

// onDeposed is the leader's OnDepose hook: move the state machine to
// Fenced (terminal).
func (n *Node) onDeposed(newTerm uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == StateFenced {
		return
	}
	n.adoptTermLocked(newTerm)
	n.state = StateFenced
	// The hint must not point at this (now-fenced) node; the successor
	// is learned through pings.
	if n.leaderName == n.opt.Name {
		n.leaderName, n.leaderAddr = "", ""
	}
	n.logf("cluster: node %s: fenced at term %d", n.opt.Name, n.term)
}

// ---- request handling (accept loop) ----

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		nc, err := n.opt.Listener.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = nc.Close()
			return
		}
		n.conns[nc] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go n.serveConn(nc)
	}
}

func (n *Node) serveConn(nc net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, nc)
		n.mu.Unlock()
		_ = nc.Close()
	}()
	r := bufio.NewReader(nc)
	for {
		frame, _, err := mq.ReadReplFrame(r)
		if err != nil {
			return
		}
		switch frame.Op {
		case mq.ReplOpVote:
			if _, err := mq.WriteReplFrame(nc, n.onVoteRequest(frame)); err != nil {
				return
			}
		case mq.ReplOpPing:
			if _, err := mq.WriteReplFrame(nc, n.onPing(frame)); err != nil {
				return
			}
		case mq.ReplOpHello, mq.ReplOpSnap:
			n.serveReplication(nc, r, frame)
			return
		default:
			return
		}
	}
}

// serveReplication hands a fetch stream or snapshot transfer to the
// leader engine, or redirects the caller at who we believe leads.
func (n *Node) serveReplication(nc net.Conn, r *bufio.Reader, first *mq.ReplFrame) {
	n.mu.Lock()
	l := n.leader
	leading := n.state == StateLeading && l != nil
	name, addr := n.leaderName, n.leaderAddr
	term := n.term
	n.mu.Unlock()
	if !leading {
		replError(nc, mq.ReplErrNotLeader, "not the leader", func(f *mq.ReplFrame) {
			f.Term = term
			f.LeaderName, f.LeaderAddr = name, addr
		})
		return
	}
	l.serveSession(nc, r, first)
}

// onVoteRequest applies the vote rules (see the package comment).
func (n *Node) onVoteRequest(req *mq.ReplFrame) *mq.ReplFrame {
	if req.PreVote {
		// Non-binding poll: answer with the same rules but change
		// nothing — not the term, not the vote, not the leader. A node
		// mid-candidacy also denies: its own election is in flight, and
		// pre-granting a competitor would hand that competitor an
		// inflated term that — should it then lose the real vote —
		// fences the freshly elected leader through its first fetch.
		// Denying is free here precisely because pre-votes are
		// non-binding: the challenger just retries after this election
		// resolves, and the lease rules take it from there.
		n.mu.Lock()
		grant := !n.closed && req.Term >= n.term &&
			n.state != StateCandidate &&
			!n.leaseValidLocked() &&
			n.candidateCurrentLocked(req.LastLSN, req.Candidate, false)
		resp := &mq.ReplFrame{Op: mq.ReplOpVoteResp, Granted: grant, Term: n.term, PreVote: true}
		n.mu.Unlock()
		return resp
	}
	var deposeLeader *leader
	n.mu.Lock()
	grant := false
	switch {
	case n.closed:
	case req.Term < n.term:
	case req.Term == n.term && n.votedFor != "" && n.votedFor != req.Candidate:
		// One vote per term, persisted before it hits the wire.
	case !req.Forced && n.leaseValidLocked():
		// Rule 1: a live leader is not deposed by impatience. No term
		// adoption here either — an impatient candidate must not be
		// able to talk a healthy group into a new term. An operator's
		// forced candidacy waives this rule (and only this rule).
	case !n.candidateCurrentLocked(req.LastLSN, req.Candidate, req.Forced):
		// Rule 2: never elect a history that misses acknowledged
		// writes this node holds. The term is still real evidence of
		// an election in progress: adopt it, so this node's own
		// (better-qualified) candidacy does not start a term behind.
		n.adoptTermLocked(req.Term)
	default:
		if req.Term > n.term {
			n.term, n.votedFor = req.Term, ""
		}
		prev := n.votedFor
		n.votedFor = req.Candidate
		if n.persistLocked() != nil {
			// A grant the disk does not hold could be repeated for a
			// rival after a restart: deny it and keep no new vote.
			n.votedFor = prev
			break
		}
		grant = true
		// Granting resets this node's own election clock too: having
		// just helped elect someone, it must give the winner a full
		// lease to show up before campaigning itself — otherwise a
		// cold-boot race lets the loser inflate the term and depose
		// the freshly elected leader through its first fetch.
		n.lastGrant = time.Now()
		n.staleSince = n.lastGrant
		if n.state == StateLeading && n.leader != nil {
			// Granting a vote at a higher term concedes leadership.
			deposeLeader = n.leader
		} else if n.state == StateCandidate {
			// A candidate that just voted for someone better stands
			// down; its own in-flight lead() will see the term moved.
			n.state = StateFollowing
		}
	}
	resp := &mq.ReplFrame{Op: mq.ReplOpVoteResp, Granted: grant, Term: n.term}
	n.mu.Unlock()
	if deposeLeader != nil {
		deposeLeader.depose(req.Term, req.Candidate, "")
	}
	return resp
}

// candidateCurrentLocked orders candidacies: higher durable LSN wins,
// ties break toward the lexically smaller name — which makes the
// automatic-failover winner deterministic instead of racing split
// votes. A forced (operator) candidacy drops the name tie-break so
// any fully-caught-up node can be promoted on purpose; the LSN rule
// itself is never waived.
func (n *Node) candidateCurrentLocked(lastLSN uint64, candidate string, forced bool) bool {
	our := n.local.WAL().DurableLSN()
	if lastLSN != our {
		return lastLSN > our
	}
	return forced || candidate <= n.opt.Name
}

// leaseValidLocked reports whether this node has recent evidence of a
// live leader (itself included) and must therefore deny votes.
func (n *Node) leaseValidLocked() bool {
	switch n.state {
	case StateLeading:
		// A live leader always says no: whether IT should still lead
		// is the self-fencing check's job, and a truly partitioned
		// leader's denial never reaches anyone anyway.
		return n.leader != nil
	case StateFollowing:
		if n.follower != nil && time.Since(n.follower.lastContact()) <= n.electAfter() {
			return true
		}
		// A fresh vote grant counts as leader evidence until the
		// winner's stream attaches.
		return time.Since(n.lastGrant) <= n.electAfter()
	default:
		return false
	}
}

// onPing answers leadership probes and absorbs announcements.
func (n *Node) onPing(req *mq.ReplFrame) *mq.ReplFrame {
	var deposeLeader *leader
	var stopFollower *follower
	n.mu.Lock()
	if req.Term > n.term {
		n.adoptTermLocked(req.Term)
		if req.LeaderName != "" && req.LeaderName != n.opt.Name {
			if n.state == StateLeading && n.leader != nil {
				deposeLeader = n.leader
			} else if n.follower != nil && n.leaderName != req.LeaderName {
				// Following a deposed leader: retarget next tick.
				stopFollower = n.follower
				n.follower = nil
			}
			// Fenced nodes track this too: their not-leader redirects
			// should point clients at the successor.
			n.leaderName, n.leaderAddr = req.LeaderName, req.LeaderAddr
		}
	} else if req.Term == n.term && req.LeaderName != "" && req.LeaderName != n.opt.Name &&
		n.state == StateFollowing && n.leaderName == "" {
		// Same-term announcement (we probably voted for the winner).
		n.leaderName, n.leaderAddr = req.LeaderName, req.LeaderAddr
	}
	resp := &mq.ReplFrame{Op: mq.ReplOpPingResp, Term: n.term}
	if n.state == StateLeading {
		resp.LeaderName, resp.LeaderAddr = n.opt.Name, n.opt.AdvertiseAddr
	} else {
		resp.LeaderName, resp.LeaderAddr = n.leaderName, n.leaderAddr
	}
	reqTerm := req.Term
	n.mu.Unlock()
	if deposeLeader != nil {
		deposeLeader.depose(reqTerm, req.LeaderName, req.LeaderAddr)
	}
	if stopFollower != nil {
		stopFollower.stop()
	}
	return resp
}

// ---- engine ----

// nodeEngine is the node as a storage engine. Every read is the local
// replica's own, whichever role the node is in: documents, rows,
// counts, series, buckets and cursor scans. Only what depends on the
// role is overridden — the writes and index builds, which need this
// node to lead, and Close.
type nodeEngine struct {
	*storage.Local
	n *Node
}

// writeTarget resolves where writes go right now: the Local while this
// node leads — the leader's commit log, fencing included, sits on that
// Local's store — and a typed redirect otherwise.
func (e *nodeEngine) writeTarget() (*storage.Local, error) {
	n := e.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.leader != nil {
		return e.Local, nil
	}
	if n.leaderName != "" && n.leaderName != n.opt.Name {
		return nil, &NotLeaderError{Leader: n.leaderName, Addr: n.leaderAddr, Err: ErrNotLeader}
	}
	return nil, &NotLeaderError{Err: ErrNotLeader}
}

func (e *nodeEngine) Insert(col string, doc storage.Doc) (string, error) {
	t, err := e.writeTarget()
	if err != nil {
		return "", err
	}
	return t.Insert(col, doc)
}

func (e *nodeEngine) InsertMany(col string, docs []storage.Doc) ([]string, error) {
	t, err := e.writeTarget()
	if err != nil {
		return nil, err
	}
	return t.InsertMany(col, docs)
}

func (e *nodeEngine) Update(col, id string, fields storage.Doc) error {
	t, err := e.writeTarget()
	if err != nil {
		return err
	}
	return t.Update(col, id, fields)
}

func (e *nodeEngine) Unset(col, id string, fields ...string) error {
	t, err := e.writeTarget()
	if err != nil {
		return err
	}
	return t.Unset(col, id, fields...)
}

func (e *nodeEngine) Delete(col, id string) error {
	t, err := e.writeTarget()
	if err != nil {
		return err
	}
	return t.Delete(col, id)
}

func (e *nodeEngine) DeleteMany(col string, filter storage.Doc) (int, error) {
	t, err := e.writeTarget()
	if err != nil {
		return 0, err
	}
	return t.DeleteMany(col, filter)
}

func (e *nodeEngine) EnsureIndex(col, field string) {
	// Index builds replicate through the leader's log; a follower
	// building one locally would fork its commit history.
	if t, err := e.writeTarget(); err == nil {
		t.EnsureIndex(col, field)
	}
}

// Close stops the node and closes its Local.
func (e *nodeEngine) Close() error { return e.n.Close() }

var (
	_ storage.Engine        = (*nodeEngine)(nil)
	_ storage.CursorScanner = (*nodeEngine)(nil)
)
