package trajectory

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"maskedspgemm/internal/core"
)

// Metric declares one reported number by the name and unit
// BENCHMARK.json lists it under.
type Metric struct {
	// Name is the metric's name.
	Name string
	// Unit is the unit its values are in.
	Unit string
}

// EndToEnd are the metrics of the untraced run, reported per workload.
// Failed ops are counted in every result's attempted and failed counts
// instead: a metric that reads 0 cannot carry a bound relative to its
// baseline.
var EndToEnd = []Metric{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
	{"live_heap_mib", "MiB"},
}

// layerSpans are the replay spans, one per layer call, in the order the
// serving path makes those calls. Each reports its median self time as
// the metric of the same name with an "_ms" suffix; a layer the
// workload's requests never reach reports 0.
var layerSpans = []string{
	"codec.decode", "sparse.fingerprint", "sparse.values_fingerprint", "store.put",
	"store.resolve", "plan.lookup", "plan.build", "engine.exec", "codec.encode",
}

// PerLayer are the metrics of the traced run, reported per workload.
var PerLayer = perLayer()

func perLayer() []Metric {
	ms := []Metric{
		{"serve.overhead_ms", "ms"},
		{"serve.queued_share", "ratio"},
		{"serve.bytes_in_per_op", "bytes"},
		{"serve.bytes_out_per_op", "bytes"},
		{"store.evictions_per_op", "count"},
		{"plan.hit_ratio", "ratio"},
		{"plan.evictions_per_op", "count"},
		{"engine.masked_flops_per_op", "flops"},
		{"engine.mflops_per_s", "Mflop/s"},
		{"engine.out_nnz_per_op", "nnz"},
		{"parallel.imbalance", "ratio"},
		{"parallel.busy_share", "ratio"},
		{"parallel.stolen_per_op", "count"},
		{"trace.http_ms", "ms"},
		{"trace.replay_ms", "ms"},
		{"trace.overhead_ratio", "ratio"},
	}
	for _, s := range layerSpans {
		ms = append(ms, Metric{s + "_ms", "ms"})
	}
	for f := core.Family(0); f < core.NumFamilies; f++ {
		ms = append(ms, Metric{"hybrid.rows." + f.String(), "rows"})
	}
	for f := core.Family(0); f < core.NumFamilies; f++ {
		ms = append(ms, Metric{"accum." + f.String() + ".ns_per_flop", "ns"})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// Rounds is how many measured rounds each workload gets per run.
// Rounds of different workloads interleave, so host-load drift over
// minutes lands on every workload alike.
const Rounds = 3

// Config selects what one run measures.
type Config struct {
	// Workloads names the traffic mixes to run, in order; empty runs
	// all of Names.
	Workloads []string
	// Seed drives every generator; the server receives only the
	// generated operands.
	Seed uint64
	// Seconds is the measured time per workload: Rounds rounds of
	// Seconds/Rounds each, or, traced, the untraced and traced phases.
	Seconds float64
	// Trace selects the traced run, which reports PerLayer instead of
	// EndToEnd.
	Trace bool
	// Small shrinks every input to a few hundred rows, for tests.
	Small bool
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Report is one run: the host it ran on and every workload's results.
type Report struct {
	// Host records where the run was taken.
	Host Host `json:"host"`
	// Seed is Config.Seed.
	Seed uint64 `json:"seed"`
	// Seconds is Config.Seconds.
	Seconds float64 `json:"seconds"`
	// Rounds is the rounds per workload: Rounds, or 1 when traced.
	Rounds int `json:"rounds"`
	// Trace is Config.Trace.
	Trace bool `json:"trace"`
	// Workloads holds one entry per workload, in run order.
	Workloads []*WorkloadReport `json:"workloads"`
}

// WorkloadReport is one workload's results.
type WorkloadReport struct {
	// Name is the workload.
	Name string `json:"name"`
	// Clients is the closed-loop client count.
	Clients int `json:"clients"`
	// Attempted counts the ops sent, warm-up excluded.
	Attempted int64 `json:"attempted"`
	// Failed counts the ops that got a non-2xx response or a transport
	// error, or whose result differs from the oracle.
	Failed int64 `json:"failed"`
	// Errors holds the first few failure messages.
	Errors []string `json:"errors,omitempty"`
	// GenS is the median time to generate the inputs and compute the
	// oracle, which set-up excludes; informational.
	GenS float64 `json:"gen_s"`
	// Metrics maps each EndToEnd (or, traced, PerLayer) metric name to
	// its value.
	Metrics map[string]Value `json:"metrics"`
	// Spans are the traced run's spans, in recording order.
	Spans []Span `json:"spans,omitempty"`
}

// Value is one metric's result.
type Value struct {
	// Value is the reported number: the median over rounds, except that
	// latency percentiles pool the ops of every round.
	Value float64 `json:"value"`
	// Unit is the metric's unit.
	Unit string `json:"unit"`
	// Rounds holds the per-round values; empty for traced runs.
	Rounds []float64 `json:"rounds,omitempty"`
}

// Host identifies the machine and build a run was taken on.
type Host struct {
	// Hostname is the machine's name.
	Hostname string `json:"hostname"`
	// NProc is the number of CPUs the process may run on.
	NProc int `json:"nproc"`
	// GOMAXPROCS is the Go scheduler's parallelism during the run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// GoVersion is the toolchain that built the benchmark.
	GoVersion string `json:"go_version"`
	// Platform is GOOS/GOARCH.
	Platform string `json:"platform"`
	// Revision is the build's VCS revision, "unknown" outside a
	// repository.
	Revision string `json:"vcs_revision"`
	// Modified reports uncommitted changes in the built tree.
	Modified bool `json:"vcs_modified"`
}

func host() Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Revision:   "unknown",
	}
	h.Hostname, _ = os.Hostname() // an unnamed host is recorded as ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// Run measures the configured workloads.
func Run(cfg Config) (*Report, error) {
	names := cfg.Workloads
	if len(names) == 0 {
		names = Names
	}
	rep := &Report{Host: host(), Seed: cfg.Seed, Seconds: cfg.Seconds, Rounds: Rounds, Trace: cfg.Trace}
	for _, name := range names {
		sp, ok := specs[name]
		if !ok {
			return nil, fmt.Errorf("trajectory: unknown workload %q (want one of %s)", name, strings.Join(Names, ", "))
		}
		rep.Workloads = append(rep.Workloads, &WorkloadReport{
			Name:    name,
			Clients: min(sp.clients, runtime.GOMAXPROCS(0)),
		})
	}
	if cfg.Trace {
		rep.Rounds = 1
		for _, wr := range rep.Workloads {
			logf(cfg.Log, "trace %s", wr.Name)
			if err := traceWorkload(cfg, wr); err != nil {
				return nil, err
			}
		}
		return rep, nil
	}
	// acc collects each workload's per-round values, latencies and
	// generation times.
	acc := make([]struct {
		vals map[string][]float64
		lat  []time.Duration
		gen  []float64
	}, len(names))
	for round := 1; round <= Rounds; round++ {
		for i, wr := range rep.Workloads {
			logf(cfg.Log, "round %d/%d %s", round, Rounds, wr.Name)
			vals, lat, gen, err := runRound(cfg, wr)
			if err != nil {
				return nil, err
			}
			if acc[i].vals == nil {
				acc[i].vals = make(map[string][]float64)
			}
			for k, v := range vals {
				acc[i].vals[k] = append(acc[i].vals[k], v)
			}
			acc[i].lat = append(acc[i].lat, lat...)
			acc[i].gen = append(acc[i].gen, gen)
		}
	}
	for i, wr := range rep.Workloads {
		wr.GenS = median(acc[i].gen)
		vals := make(map[string]float64)
		for k, s := range acc[i].vals {
			vals[k] = median(s)
		}
		// A round of the slowest workload completes under a hundred ops,
		// too few for its p95; the reported percentiles pool every round.
		vals["latency_p50_ms"] = percentile(acc[i].lat, 0.50)
		vals["latency_p95_ms"] = percentile(acc[i].lat, 0.95)
		m, err := metricsOf(EndToEnd, vals)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			v.Rounds = acc[i].vals[k]
			m[k] = v
		}
		wr.Metrics = m
	}
	return rep, nil
}

// runRound generates a workload's inputs, sets its server up, measures
// one round, and tears the server down. It returns the round's
// end-to-end metrics, its latencies, and the generation time.
func runRound(cfg Config, wr *WorkloadReport) (map[string]float64, []time.Duration, float64, error) {
	sp := specs[wr.Name]
	t0 := time.Now()
	in, err := sp.build(cfg.Seed, cfg.Small)
	if err != nil {
		return nil, nil, 0, err
	}
	gen := time.Since(t0).Seconds()
	t0 = time.Now()
	r, err := startRig(sp, in, wr.Clients, cfg.Small)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("trajectory: %s set-up: %w", wr.Name, err)
	}
	defer r.close()
	setup := time.Since(t0).Seconds()
	cpu0 := cpuTime()
	t := r.drive(wr.Clients, time.Now().Add(seconds(cfg.Seconds/Rounds)), 0)
	cpu := cpuTime() - cpu0
	wr.account(t)
	done := float64(max(len(t.lat), 1))
	return map[string]float64{
		"ops_per_s":      float64(len(t.lat)) / t.elapsed.Seconds(),
		"latency_p50_ms": percentile(t.lat, 0.50),
		"latency_p95_ms": percentile(t.lat, 0.95),
		"cpu_ms_per_op":  float64(cpu) / float64(time.Millisecond) / done,
		"setup_s":        setup,
		"live_heap_mib":  liveHeapMiB(),
	}, t.lat, gen, nil
}

// account folds a closed loop's counts and failures into the report.
func (wr *WorkloadReport) account(t tally) {
	wr.Attempted += t.attempted
	wr.Failed += t.failed
	for _, e := range t.errs {
		if len(wr.Errors) < maxErrs {
			wr.Errors = append(wr.Errors, e)
		}
	}
}

// metricsOf attaches units to computed values, insisting that vals
// holds exactly the declared metrics.
func metricsOf(defs []Metric, vals map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("trajectory: metric %s was not computed", d.Name)
		}
		out[d.Name] = Value{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("trajectory: computed %d metrics, %d are declared", len(vals), len(defs))
	}
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB forces a collection and reads the live heap it left.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
