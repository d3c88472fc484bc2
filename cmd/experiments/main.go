// Command experiments regenerates every table and figure of the
// paper's evaluation from the simulated deployment and reports the
// shape checks (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured values).
//
// Usage:
//
//	experiments [-scale 0.01] [-seed 42] [-only fig17]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/urbancivics/goflow/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args, runs the suite and prints the transcript to stdout.
// results/ holds the transcript and CSVs of the default run.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.01, "fraction of the published 23M-observation study to simulate")
	seed := fs.Int64("seed", 42, "random seed")
	only := fs.String("only", "", "comma-separated experiment ids to print (default all)")
	extensions := fs.Bool("extensions", true, "also run the Section 8 future-work experiments (ext1-ext4)")
	csvDir := fs.String("csv", "", "also write one CSV per experiment into this directory")
	fs.Parse(args) // ExitOnError: a bad flag exits 2, as flag.Parse does

	suite := experiment.Suite{Scale: *scale, Seed: *seed, Extensions: *extensions}
	results, err := suite.RunAll()
	if err != nil {
		return err
	}
	if *only != "" {
		want := make(map[string]bool)
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
		filtered := results[:0]
		for _, r := range results {
			if want[r.ID] {
				filtered = append(filtered, r)
			}
		}
		results = filtered
	}
	if *csvDir != "" {
		paths, err := experiment.WriteCSVFiles(*csvDir, results)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d CSV files to %s\n", len(paths), *csvDir)
	}
	return experiment.RenderAll(stdout, results)
}
