package trajectory

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// WriteTable prints every workload's metrics by name with their units.
func (rep *Report) WriteTable(w io.Writer) {
	h := rep.Host
	fmt.Fprintf(w, "host %s  nproc %d  GOMAXPROCS %d  %s %s  rev %s (modified %v)  seed %d\n",
		h.Hostname, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Platform, h.Revision, h.Modified, rep.Seed)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n%s: %d client(s), %d ops attempted, %d failed, inputs %.3fs\n",
			wr.Name, wr.Clients, wr.Attempted, wr.Failed, wr.GenS)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, name := range sortedKeys(wr.Metrics) {
			v := wr.Metrics[name]
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", name, v.Value, v.Unit, formatRounds(v.Rounds))
		}
		tw.Flush()
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  failure: %s\n", e)
		}
	}
}

func formatRounds(rs []float64) string {
	if len(rs) == 0 {
		return ""
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%.6g", r)
	}
	return "rounds " + strings.Join(parts, " ")
}

// WriteResult prints the run's result as one line of JSON: whether
// every op was correct, the attempted and failed counts, and every
// metric with its unit. With more than one workload, each metric name
// is prefixed by its workload and a dot.
func (rep *Report) WriteResult(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var line struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	line.Metrics = make(map[string]value)
	for _, wr := range rep.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for name, v := range wr.Metrics {
			if len(rep.Workloads) > 1 {
				name = wr.Name + "." + name
			}
			line.Metrics[name] = value{v.Value, v.Unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	return json.NewEncoder(w).Encode(line)
}

// Benchmark is the part of BENCHMARK.json the comparison reads.
type Benchmark struct {
	// Workloads are the declared traffic mixes.
	Workloads []BenchWorkload `json:"workloads"`
	// EndToEnd are the declared end-to-end metrics, each with its
	// regression bound.
	EndToEnd []BenchMetric `json:"end_to_end"`
	// PerLayer are the declared per-layer metrics, which carry no bound.
	PerLayer []BenchMetric `json:"per_layer"`
}

// BenchWorkload is one workload declared in BENCHMARK.json.
type BenchWorkload struct {
	// Name is the workload's name.
	Name string `json:"name"`
	// Why records what the workload is for.
	Why string `json:"why"`
}

// BenchMetric is one metric declared in BENCHMARK.json.
type BenchMetric struct {
	// Name is the metric's name.
	Name string `json:"name"`
	// Unit is the unit its values are in.
	Unit string `json:"unit"`
	// Better is "higher" or "lower".
	Better string `json:"better"`
	// Bound is the share of the baseline median by which the metric may
	// get worse before a change counts as a regression.
	Bound float64 `json:"bound"`
}

// ReadBenchmark loads a BENCHMARK.json.
func ReadBenchmark(path string) (*Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("trajectory: %s: %w", path, err)
	}
	return &b, nil
}

// ReadReports loads run files written by the command's -out flag.
func ReadReports(paths []string) ([]*Report, error) {
	var reps []*Report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("trajectory: %s: %w", p, err)
		}
		reps = append(reps, &rep)
	}
	return reps, nil
}

// Compare prints, for every end-to-end metric and workload, the median
// of each side's rounds (pooled over the side's run files), the change
// from a to b, and the metric's bound. A row is "unresolved" when either
// side's spread — the interquartile range of its rounds over their
// median — exceeds the bound, "regressed" or "improved" when the change
// exceeds the bound, and "ok" otherwise. Compare reports whether any
// row regressed.
func Compare(w io.Writer, bench *Benchmark, a, b []*Report) (regressed bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian a\tmedian b\tchange\tbound\tspread a\tspread b\tstatus")
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			ra, rb := rounds(a, wl.Name, m.Name), rounds(b, wl.Name, m.Name)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			ma, mb := median(ra), median(rb)
			sa, sb := spread(ra), spread(rb)
			change := ratio(mb-ma, ma)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			status := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				status = "unresolved"
			case worse > m.Bound:
				status = "regressed"
				regressed = true
			case -worse > m.Bound:
				status = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%\t%.2f%%\t%s\n",
				wl.Name, m.Name, m.Unit, ma, mb, 100*change, 100*m.Bound, 100*sa, 100*sb, status)
		}
	}
	tw.Flush()
	for _, side := range []struct {
		name string
		reps []*Report
	}{{"a", a}, {"b", b}} {
		var att, fail int64
		for _, r := range side.reps {
			for _, wr := range r.Workloads {
				att += wr.Attempted
				fail += wr.Failed
			}
		}
		fmt.Fprintf(w, "side %s: %d run(s), %d ops attempted, %d failed\n", side.name, len(side.reps), att, fail)
	}
	return regressed
}

// rounds pools a metric's per-round values across run files.
func rounds(reps []*Report, workload, metric string) []float64 {
	var out []float64
	for _, r := range reps {
		for _, wr := range r.Workloads {
			if v, ok := wr.Metrics[metric]; ok && wr.Name == workload {
				if len(v.Rounds) == 0 {
					out = append(out, v.Value)
				}
				out = append(out, v.Rounds...)
			}
		}
	}
	return out
}

// spread is the interquartile range over the median, with quartiles
// taken as Python's statistics.quantiles(xs, n=4) takes them (the
// exclusive method); 0 for fewer than two values.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}

func sortedKeys(m map[string]Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
