package main

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/urbancivics/goflow/internal/cluster"
	"github.com/urbancivics/goflow/internal/obs"
	"github.com/urbancivics/goflow/internal/series"
	"github.com/urbancivics/goflow/internal/storage"
	"github.com/urbancivics/goflow/internal/wal"
)

// engine is the storage the server runs on, as the flags chose it.
type engine struct {
	storage.Engine
	// primary is the one Local, shard 0 behind a Router, or an election
	// node's replica: metrics, the live cache and /sc read it.
	primary *storage.Local
	node    *cluster.Node // -election only, with leads carrying its wins
	leads   chan uint64
}

// openEngine recovers the engine the flags select: an -election member
// over one Local at <wal-dir>; with -shards N > 1 a Router over N Locals
// at <wal-dir>/shard-i; otherwise one Local at <wal-dir> (memory-only
// without it). OpenLocal owns each Local's recovery order.
func openEngine(o *options, reg *obs.Registry, out io.Writer) (*engine, error) {
	policy, err := wal.ParseFsyncPolicy(o.fsyncPolicy)
	if err != nil {
		return nil, err
	}
	var seriesOpts *storage.SeriesOptions
	if o.series {
		seriesOpts = &storage.SeriesOptions{Options: series.Options{Retention: o.retention, RollupBucket: o.rollup}}
	}
	// An election node installs its own commit log, so it opens detached.
	open := func(dir string, attach bool) (*storage.Local, error) {
		l, err := storage.OpenLocal(storage.LocalOptions{WALDir: dir, Policy: policy, NoAttach: !attach, Series: seriesOpts})
		if err != nil {
			return nil, err
		}
		if w := l.WAL(); w != nil {
			records, d := l.ReplayInfo()
			fmt.Fprintf(out, "goflow-server: wal %s replayed %d records (%d legacy gob) in %v (lsn %d, policy %s)\n",
				dir, records, l.Store().FormatStats().DecodedGob, d.Round(time.Millisecond), w.LastLSN(), policy)
		}
		return l, nil
	}

	switch {
	case o.election != "":
		return openNode(o, open, cluster.NewMetrics(reg), out)
	case o.shards > 1:
		shards := make([]storage.Engine, o.shards)
		for i := range shards {
			l, err := open(filepath.Join(o.walDir, fmt.Sprintf("shard-%d", i)), true)
			if err != nil {
				closeAll(shards[:i]...)
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			shards[i] = l
		}
		router, err := cluster.NewRouter(shards, cluster.RouterOptions{Keys: cluster.DefaultShardKeys(), Metrics: cluster.NewMetrics(reg)})
		if err != nil {
			closeAll(shards...)
			return nil, err
		}
		fmt.Fprintf(out, "goflow-server: routing %d shards (keys %v)\n", o.shards, cluster.DefaultShardKeys())
		return &engine{Engine: router, primary: shards[0].(*storage.Local)}, nil
	default:
		l, err := open(o.walDir, true)
		if err != nil {
			return nil, err
		}
		return &engine{Engine: l, primary: l}, nil
	}
}

// openNode joins this process to its -election group.
func openNode(o *options, open func(string, bool) (*storage.Local, error), m *cluster.Metrics, out io.Writer) (*engine, error) {
	members, err := parseMembers(o.election)
	if err != nil {
		return nil, err
	}
	name := o.nodeName
	if name == "" {
		name, _ = os.Hostname() // no host name fails the member lookup below
	}
	self, ok := members[name]
	if !ok {
		return nil, fmt.Errorf("-node-name %q is not in the -election member list", name)
	}
	peers := maps.Clone(members)
	delete(peers, name)
	ln, err := net.Listen("tcp", self)
	if err != nil {
		return nil, fmt.Errorf("election listener %s: %w", self, err)
	}
	local, err := open(o.walDir, false)
	if err != nil {
		closeAll(ln)
		return nil, err
	}
	leads := make(chan uint64, 1)
	node, err := cluster.StartNode(local, cluster.NodeOptions{
		Name:          name,
		Peers:         peers,
		Listener:      ln,
		AdvertiseAddr: self,
		LeaseTTL:      o.leaseTTL,
		Metrics:       m,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, "goflow-server: "+format+"\n", args...)
		},
		OnLead: func(term uint64) {
			select {
			case leads <- term:
			default: // the loop is behind; one pending win is enough
			}
		},
	})
	if err != nil {
		closeAll[io.Closer](ln, local)
		return nil, err
	}
	fmt.Fprintf(out, "goflow-server: election node %q in a %d-member group on %s (lease %v; SIGHUP forces an election)\n",
		name, len(members), self, o.leaseTTL)
	return &engine{Engine: node.Engine(), primary: local, node: node, leads: leads}, nil
}

// closeAll closes what was opened before a later step failed.
func closeAll[C io.Closer](cs ...C) {
	for _, c := range cs {
		_ = c.Close()
	}
}

// parseMembers parses an -election list ("n1=h1:7700,n2=h2:7700").
func parseMembers(spec string) (map[string]string, error) {
	members := map[string]string{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("-election member %q: want name=addr", part)
		}
		if _, dup := members[name]; dup {
			return nil, fmt.Errorf("-election member %q listed twice", name)
		}
		members[name] = addr
	}
	if len(members) == 0 {
		return nil, errors.New("-election needs at least one name=addr member")
	}
	return members, nil
}
