// Command goflow-load is the repository's one end-to-end benchmark. It
// builds and launches the real goflow-server binary on loopback with a
// temp WAL directory, drives it over its real wires (mq TCP frames,
// REST, the live push stream) from a seeded, precomputed event queue with
// exactly two load workers of one connection each, checks the server's
// outputs against an oracle, and prints every metric by name with its
// unit and sample count.
//
// Run from the repository root (bench/run.sh does the build):
//
//	goflow-load                       all workloads, timed then traced; writes bench/out/set.json
//	goflow-load -quick                the same with 5 s windows (smoke; stamped non-comparable)
//	goflow-load -aa                   the full set twice, compared with itself
//	goflow-load -compare a.json b.json
//	goflow-load --workload W --seed N --seconds S --trace 0|1
//
// The last form is the BENCHMARK.json contract: one run, whose final
// line on standard output is a single JSON object with the run's
// metrics (end-to-end with --trace 0, per-layer with --trace 1).
// bench/README.md documents workloads, metrics and how to read a trace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runLimit is the watchdog on a single run: past it something is hung,
// and the harness takes its server down and exits rather than wait.
const runLimit = 170 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "run this one workload and print the contract's JSON line last")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 0, "timed window in seconds (default: BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "with -workload: 0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	quick := flag.Bool("quick", false, "smoke run with 5 s windows; results are stamped non-comparable")
	compare := flag.Bool("compare", false, "compare two result sets: goflow-load -compare a.json b.json")
	aa := flag.Bool("aa", false, "run the full set twice and compare it with itself")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	if *compare {
		return compareFiles(root, flag.Args())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllServers()
		_ = os.RemoveAll(filepath.Join(root, buildDir, "tmp"))
		os.Exit(130)
	}()
	defer killAllServers()

	bench, err := readBenchmark(root)
	if err != nil {
		return fail(err)
	}
	specs, err := loadSpecs(root)
	if err != nil {
		return fail(err)
	}
	window := time.Duration(bench.RunSeconds) * time.Second
	if *seconds > 0 {
		window = time.Duration(*seconds) * time.Second
	}
	if *quick {
		window = 5 * time.Second
	}
	bin, err := buildServer(root)
	if err != nil {
		return fail(err)
	}
	opts := func(name string) (runOpts, error) {
		spec, ok := specs.workload(name)
		if !ok {
			return runOpts{}, fmt.Errorf("no workload %q in %s", name, specFile)
		}
		return runOpts{root: root, serverBin: bin, specs: specs, spec: spec, seed: *seed, window: window, quick: *quick}, nil
	}

	if *workload != "" {
		o, err := opts(*workload)
		if err != nil {
			return fail(err)
		}
		r, err := oneRun(o, *trace == 1)
		if err != nil {
			return fail(err)
		}
		printTable(os.Stderr, r)
		kind := "timed"
		if r.Trace {
			kind = "traced"
		}
		if err := writeJSON(filepath.Join(outDir(root), r.Workload+"."+kind+".json"), r); err != nil {
			return fail(err)
		}
		if err := contractLine(os.Stdout, r); err != nil {
			return fail(err)
		}
		if !r.Correct {
			return 1
		}
		return 0
	}

	runSet := func(path string) (*resultSet, bool, error) {
		set := &resultSet{Schema: schemaVersion, Taken: time.Now().UTC()}
		allCorrect := true
		for _, w := range specs.Workloads {
			o, err := opts(w.Name)
			if err != nil {
				return nil, false, err
			}
			for _, traced := range []bool{false, true} {
				r, err := oneRun(o, traced)
				if err != nil {
					return nil, false, fmt.Errorf("%s: %w", w.Name, err)
				}
				printTable(os.Stdout, r)
				set.Runs = append(set.Runs, *r)
				set.Env = r.Env
				allCorrect = allCorrect && r.Correct && r.Failed == 0
			}
		}
		return set, allCorrect, writeJSON(path, set)
	}

	first, ok, err := runSet(filepath.Join(outDir(root), "set.json"))
	if err != nil {
		return fail(err)
	}
	if !*aa {
		if !ok {
			fmt.Fprintln(os.Stderr, "goflow-load: a correctness oracle failed or an operation failed; see the tables above")
			return 1
		}
		return 0
	}
	second, ok2, err := runSet(filepath.Join(outDir(root), "set.aa.json"))
	if err != nil {
		return fail(err)
	}
	fmt.Println("\n== A/A: the same code measured twice")
	if compareSets(os.Stdout, bench, first, second) || !ok || !ok2 {
		return 1
	}
	return 0
}

// oneRun executes one run under the watchdog.
func oneRun(o runOpts, traced bool) (*runResult, error) {
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "goflow-load: %s run exceeded %v; killing the server and giving up\n", o.spec.Name, runLimit)
		killAllServers()
		_ = os.RemoveAll(filepath.Join(o.root, buildDir, "tmp"))
		os.Exit(3)
	})
	defer watchdog.Stop()
	if traced {
		return tracedRun(o)
	}
	return timedRun(o)
}

func compareFiles(root string, args []string) int {
	if len(args) != 2 {
		return fail(errors.New("usage: goflow-load -compare a.json b.json"))
	}
	bench, err := readBenchmark(root)
	if err != nil {
		return fail(err)
	}
	a, err := readSet(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := readSet(args[1])
	if err != nil {
		return fail(err)
	}
	if compareSets(os.Stdout, bench, a, b) {
		return 1
	}
	return 0
}

// progress notes a phase on standard error with the time since the
// process started, so a slow run shows where its seconds went.
var started = time.Now()

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "goflow-load:", err)
	if errors.Is(err, errVoid) {
		return 2
	}
	return 1
}
