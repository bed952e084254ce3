// Command mspgemm-trajectory is the request-level benchmark of the
// serving path: mspgemm-serve's handler runs in-process behind a
// loopback listener, closed-loop clients in the same process drive it
// with four traffic mixes, and every response is checked against an
// oracle. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./cmd/mspgemm-trajectory -out run.json           # all workloads, end to end
//	go run ./cmd/mspgemm-trajectory -trace 1 -out tr.json   # per-layer numbers
//	go run ./cmd/mspgemm-trajectory -compare a.json b.json  # two run sets
//	go run ./cmd/mspgemm-trajectory --workload tc-skew-ref --seed 7 --seconds 10 --trace 0
//
// The last line of standard output is the result as one JSON object.
// The command exits 1 when any op failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"maskedspgemm/internal/trajectory"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "seed of every input generator")
		out      = flag.String("out", "", "write the full run (per-round values, host, spans) as JSON to this file")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
		compare  = flag.String("compare", "", "compare two run sets: -compare a.json[,a2.json…] b.json[,b2.json…], bounds from ./BENCHMARK.json")
		workload = flag.String("workload", "", "comma-separated workloads to run (default all: "+strings.Join(trajectory.Names, ",")+")")
		seconds  = flag.Float64("seconds", 30, "measured seconds per workload")
	)
	flag.Parse()

	if *compare != "" {
		os.Exit(runCompare(*compare, flag.Args()))
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Every core serves: clients and server share the process, and the
	// run records nproc and GOMAXPROCS, which must agree.
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := trajectory.Config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Log: os.Stderr}
	if *workload != "" {
		cfg.Workloads = strings.Split(*workload, ",")
	}
	rep, err := trajectory.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mspgemm-trajectory:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "mspgemm-trajectory:", err)
			os.Exit(1)
		}
	}
	rep.WriteTable(os.Stdout)
	if err := rep.WriteResult(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mspgemm-trajectory:", err)
		os.Exit(1)
	}
	for _, wr := range rep.Workloads {
		if wr.Failed > 0 {
			os.Exit(1)
		}
	}
}

func runCompare(a string, rest []string) int {
	if len(rest) != 1 {
		fmt.Fprintln(os.Stderr, "mspgemm-trajectory: -compare takes two run sets: -compare a.json b.json")
		return 2
	}
	bench, err := trajectory.ReadBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mspgemm-trajectory:", err)
		return 1
	}
	sides := make([][]*trajectory.Report, 2)
	for i, arg := range []string{a, rest[0]} {
		if sides[i], err = trajectory.ReadReports(strings.Split(arg, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "mspgemm-trajectory:", err)
			return 1
		}
	}
	if trajectory.Compare(os.Stdout, bench, sides[0], sides[1]) {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
