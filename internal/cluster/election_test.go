package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/urbancivics/goflow/internal/mq"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/storage/enginetest"
)

// chaosNet is the nemesis: a partitionable in-process network. Every
// node's dials and accepts route through it; partitioning a node
// black-holes new connections in both directions AND severs its
// established ones (a real partition kills live TCP streams too — a
// nemesis that only blocks new dials would let the old fetch streams
// keep renewing leases straight through the "partition").
type chaosNet struct {
	mu      sync.Mutex
	blocked map[string]bool
	conns   map[string]map[net.Conn]struct{}
}

func newChaosNet() *chaosNet {
	return &chaosNet{
		blocked: map[string]bool{},
		conns:   map[string]map[net.Conn]struct{}{},
	}
}

func (cn *chaosNet) isBlocked(name string) bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.blocked[name]
}

func (cn *chaosNet) track(name string, nc net.Conn) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.conns[name] == nil {
		cn.conns[name] = map[net.Conn]struct{}{}
	}
	cn.conns[name][nc] = struct{}{}
}

// partition isolates a node: future dials fail, future accepts are
// dropped, live connections are cut.
func (cn *chaosNet) partition(name string) {
	cn.mu.Lock()
	cn.blocked[name] = true
	conns := cn.conns[name]
	cn.conns[name] = nil
	cn.mu.Unlock()
	for nc := range conns {
		_ = nc.Close()
	}
}

func (cn *chaosNet) heal(name string) {
	cn.mu.Lock()
	cn.blocked[name] = false
	cn.mu.Unlock()
}

func (cn *chaosNet) dialer(name string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		if cn.isBlocked(name) {
			return nil, errors.New("chaos: partitioned")
		}
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		cn.track(name, nc)
		return nc, nil
	}
}

// chaosListener drops inbound connections while its owner is blocked.
type chaosListener struct {
	net.Listener
	cn   *chaosNet
	name string
}

func (l *chaosListener) Accept() (net.Conn, error) {
	for {
		nc, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.cn.isBlocked(l.name) {
			_ = nc.Close()
			continue
		}
		l.cn.track(l.name, nc)
		return nc, nil
	}
}

// testGroup is a three-node replication group on the chaos net.
type testGroup struct {
	cn    *chaosNet
	names []string
	nodes map[string]*Node
	addrs map[string]string
}

func startGroup(t *testing.T, dir string, seed int64, ttl time.Duration) *testGroup {
	t.Helper()
	g := &testGroup{
		cn:    newChaosNet(),
		names: []string{"n1", "n2", "n3"},
		nodes: map[string]*Node{},
		addrs: map[string]string{},
	}
	listeners := map[string]net.Listener{}
	for _, name := range g.names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[name] = ln
		g.addrs[name] = ln.Addr().String()
	}
	for i, name := range g.names {
		peers := map[string]string{}
		for _, p := range g.names {
			if p != name {
				peers[p] = g.addrs[p]
			}
		}
		node, err := StartNode(openShard(t, filepath.Join(dir, name)), NodeOptions{
			Name:          name,
			Peers:         peers,
			Listener:      &chaosListener{Listener: listeners[name], cn: g.cn, name: name},
			AdvertiseAddr: g.addrs[name],
			LeaseTTL:      ttl,
			ackTimeout:    ttl,
			seed:          seed*31 + int64(i),
			dial:          g.cn.dialer(name),
			Logf:          t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.nodes[name] = node
	}
	return g
}

func (g *testGroup) closeAll() {
	for _, n := range g.nodes {
		_ = n.Close()
	}
}

// waitLeader polls for a node in StateLeading, excluding one name.
func waitLeader(t *testing.T, g *testGroup, exclude string, timeout time.Duration) (string, time.Duration) {
	t.Helper()
	start := time.Now()
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		for _, name := range g.names {
			if name == exclude {
				continue
			}
			if stateOf(g.nodes[name]) == StateLeading {
				return name, time.Since(start)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	states := map[string]string{}
	for _, name := range g.names {
		if name != exclude {
			states[name] = stateOf(g.nodes[name]).String()
		}
	}
	t.Fatalf("no leader elected within %v (excluding %s); states: %v", timeout, exclude, states)
	return "", 0
}

// insertRetry writes through a node engine, retrying transient
// rejections (ack quorum not attached yet) up to the deadline.
func insertRetry(t *testing.T, eng storage.Engine, col string, doc storage.Doc, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		id, err := eng.Insert(col, doc)
		if err == nil {
			return id
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("insert never succeeded: %v", lastErr)
	return ""
}

// TestElectionChaosFailover is the headline self-healing claim under
// seeded chaos: a three-node group elects a leader, ingests, loses
// that leader to a seed-chosen nemesis (network partition on odd
// seeds, process kill on even ones) mid-ingest — and a new leader
// takes over within 3 lease TTLs, ingest resumes against it, and the
// union of all acknowledged writes is intact on the new timeline. On
// partition seeds the deposed leader comes back from its partition
// fenced: every write it is offered fails with ErrStaleTerm, so the
// old timeline cannot hand out acknowledgements that would fork
// history. Reproduce any failure with its subtest name; nemesis
// choice, timing and candidacy jitter are all pure functions of the
// seed.
func TestElectionChaosFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test; skipped in -short")
	}
	const ttl = 500 * time.Millisecond
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			partitionNemesis := seed%2 == 1
			dir := t.TempDir()
			g := startGroup(t, dir, seed, ttl)
			defer g.closeAll()

			// Cold boot: somebody must take the job.
			leader, _ := waitLeader(t, g, "", 15*time.Second)
			eng := g.nodes[leader].Engine()
			// First acknowledged write proves the ack quorum is attached.
			firstID := insertRetry(t, eng, "obs", storage.Doc{"device": "boot"}, 10*time.Second)
			acked := []string{firstID}

			// Ingest until the nemesis bites at a seed-chosen point.
			nemesisAfter := 5 + rnd.Intn(40)
			for i := 0; ; i++ {
				id, err := eng.Insert("obs", storage.Doc{"device": fmt.Sprintf("d%d", i%3), "seq": i})
				if err != nil {
					break // the leader is dying under us; stop at the first unacked write
				}
				acked = append(acked, id)
				if len(acked) >= nemesisAfter {
					break
				}
			}

			// Nemesis.
			start := time.Now()
			if partitionNemesis {
				g.cn.partition(leader)
			} else {
				_ = g.nodes[leader].Close()
			}

			// The group must heal itself: a new leader within 3 TTLs.
			successor, took := waitLeader(t, g, leader, 3*ttl)
			elapsed := time.Since(start)
			if elapsed > 3*ttl {
				t.Fatalf("failover took %v, want <= %v", elapsed, 3*ttl)
			}
			t.Logf("seed %d: %s -> %s in %v (%d writes acked pre-nemesis)", seed, leader, successor, took, len(acked))

			// Ingest resumes on the new leader.
			newEng := g.nodes[successor].Engine()
			for i := 0; i < 10; i++ {
				acked = append(acked, insertRetry(t, newEng, "obs",
					storage.Doc{"device": "post-failover", "seq": i}, 10*time.Second))
			}

			// Zero acked loss: the union of acknowledged writes is on
			// the new timeline.
			for _, id := range acked {
				if _, err := newEng.Get("obs", id); err != nil {
					t.Fatalf("acked doc %s lost across failover: %v", id, err)
				}
			}
			// ... and reads the same as rows or as documents.
			dumpEngine(t, newEng)

			if partitionNemesis {
				// The deposed leader returns from its partition fenced:
				// its write path is dead, typed, and carries the stale
				// term — not a second timeline.
				g.cn.heal(leader)
				old := g.nodes[leader]
				if st := stateOf(old); st != StateFenced {
					t.Fatalf("deposed leader state = %v, want fenced", st)
				}
				_, err := old.Engine().Insert("obs", storage.Doc{"device": "zombie"})
				if !errors.Is(err, ErrStaleTerm) {
					t.Fatalf("deposed leader write error = %v, want ErrStaleTerm", err)
				}
				if !errors.Is(err, ErrNotLeader) {
					t.Fatalf("stale-term write should also match ErrNotLeader, got %v", err)
				}
			}
		})
	}
}

// TestForceElectionOverride covers the manual path (SIGHUP in the
// server wiring): a healthy group is told to re-elect; a node steps
// up without waiting out any lease.
func TestForceElectionOverride(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test; skipped in -short")
	}
	const ttl = 500 * time.Millisecond
	dir := t.TempDir()
	g := startGroup(t, dir, 99, ttl)
	defer g.closeAll()

	leader, _ := waitLeader(t, g, "", 15*time.Second)
	insertRetry(t, g.nodes[leader].Engine(), "obs", storage.Doc{"device": "pre"}, 10*time.Second)
	termBefore := g.nodes[leader].Term()

	// Pick a follower and force it to run. The healthy leader concedes
	// on the higher term; no lease has to expire first.
	var challenger string
	for _, name := range g.names {
		if name != leader {
			challenger = name
			break
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for stateOf(g.nodes[challenger]) != StateLeading {
		if time.Now().After(deadline) {
			t.Fatalf("forced election never promoted %s (state %v, term %d)",
				challenger, stateOf(g.nodes[challenger]), g.nodes[challenger].Term())
		}
		g.nodes[challenger].ForceElection()
		time.Sleep(50 * time.Millisecond)
	}
	if term := g.nodes[challenger].Term(); term <= termBefore {
		t.Fatalf("forced election term %d did not advance past %d", term, termBefore)
	}
	// The old leader is deposed, not split-brained.
	if st := stateOf(g.nodes[leader]); st == StateLeading {
		t.Fatalf("old leader still leading after forced election")
	}
}

// startLeadingNode starts a one-member group with a short lease and
// waits for it to elect itself.
func startLeadingNode(t *testing.T) *Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := StartNode(openShard(t, t.TempDir()), NodeOptions{Name: "n1", Listener: ln, LeaseTTL: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for stateOf(n) != StateLeading {
		if time.Now().After(deadline) {
			_ = n.Close()
			t.Fatal("a one-member group never elected itself")
		}
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestNodeConformance: an elected node is indistinguishable from the
// single-node engine through the Engine interface, cursor walks
// included.
func TestNodeConformance(t *testing.T) {
	enginetest.Run(t, func(t *testing.T) storage.Engine { return startLeadingNode(t).Engine() })
}

// TestUnpersistedElectionStateIsNotActedOn: with node.manifest
// unwritable (a non-empty directory where its rename lands), a vote is
// not granted and a one-member group does not lead — persist before
// act is what keeps a restart from voting twice in one term.
func TestUnpersistedElectionStateIsNotActedOn(t *testing.T) {
	block := func(t *testing.T, n *Node) {
		t.Helper()
		if err := os.MkdirAll(filepath.Join(n.local.WAL().Dir(), "node.manifest", "blocker"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("vote", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// An unreachable peer and a minute-long lease keep the node from
		// campaigning itself while it is asked for its vote.
		n, err := StartNode(openShard(t, t.TempDir()), NodeOptions{
			Name: "n2", Peers: map[string]string{"n3": "127.0.0.1:1"}, Listener: ln, LeaseTTL: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = n.Close() }()
		block(t, n)
		resp, err := n.roundTrip(ln.Addr().String(), &mq.ReplFrame{Op: mq.ReplOpVote, Term: 1, Candidate: "n1"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Op != mq.ReplOpVoteResp || resp.Granted {
			t.Fatalf("vote answer %+v, want a denial", resp)
		}
		n.mu.Lock()
		voted := n.votedFor
		n.mu.Unlock()
		if voted != "" {
			t.Fatalf("denied vote kept votedFor %q", voted)
		}
	})
	t.Run("lead", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		const ttl = 50 * time.Millisecond
		n, err := StartNode(openShard(t, t.TempDir()), NodeOptions{Name: "n1", Listener: ln, LeaseTTL: ttl})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = n.Close() }()
		block(t, n)
		// An election is due every 2×TTL from here on; give it several.
		time.Sleep(10 * ttl)
		if st := stateOf(n); st == StateLeading {
			t.Fatalf("node leads at term %d with no durable record of it", n.Term())
		}
	})
}

// stateOf reads n's election state.
func stateOf(n *Node) NodeState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}
