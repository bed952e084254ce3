package trajectory

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// benchmarkJSON is the repository's benchmark declaration, which the
// metrics this package emits must match name for name and unit for
// unit.
const benchmarkJSON = "../../BENCHMARK.json"

func declared(t *testing.T) *Benchmark {
	t.Helper()
	b, err := ReadBenchmark(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkEmitted asserts that every workload of rep ran without a failed
// op and emitted exactly the declared metrics, each with its declared
// unit.
func checkEmitted(t *testing.T, rep *Report, want []BenchMetric) {
	t.Helper()
	if len(rep.Workloads) != len(Names) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(Names))
	}
	for _, wr := range rep.Workloads {
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Errors)
		}
		if len(wr.Metrics) != len(want) {
			t.Errorf("%s: %d metrics emitted, %d declared", wr.Name, len(wr.Metrics), len(want))
		}
		for _, m := range want {
			v, ok := wr.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: declared metric %s not emitted", wr.Name, m.Name)
			case v.Unit != m.Unit:
				t.Errorf("%s: %s emitted in %q, declared in %q", wr.Name, m.Name, v.Unit, m.Unit)
			case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
				t.Errorf("%s: %s = %v", wr.Name, m.Name, v.Value)
			}
		}
	}
}

func TestWorkloadsMatchBenchmark(t *testing.T) {
	var names []string
	for _, w := range declared(t).Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(Names, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the package runs %v", names, Names)
	}
}

func TestEndToEndSmall(t *testing.T) {
	rep, err := Run(Config{Seed: 3, Seconds: 0.3, Small: true})
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, rep, declared(t).EndToEnd)
	for _, wr := range rep.Workloads {
		for name, v := range wr.Metrics {
			if len(v.Rounds) != Rounds {
				t.Errorf("%s: %s has %d rounds, want %d", wr.Name, name, len(v.Rounds), Rounds)
			}
			if v.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wr.Name, name, v.Value)
			}
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteResult(&buf); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]json.RawMessage
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("result line %q: %v", buf.String(), err)
	}
	if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
		t.Errorf("result line %s", buf.String())
	}
	if _, ok := line.Metrics[TCSkewRef+".ops_per_s"]; !ok || len(line.Metrics) != len(Names)*len(EndToEnd) {
		t.Errorf("result line metrics %v", line.Metrics)
	}
}

// exact are the per-layer metrics that count work rather than time it:
// equal seeds must reproduce them bit for bit.
func exact(name string) bool {
	return strings.HasPrefix(name, "hybrid.rows.") ||
		name == "engine.masked_flops_per_op" || name == "engine.out_nnz_per_op"
}

func TestTracedSmallCountsRepeat(t *testing.T) {
	var runs [2]*Report
	for i := range runs {
		rep, err := Run(Config{Seed: 5, Seconds: 0.3, Small: true, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, rep, declared(t).PerLayer)
		runs[i] = rep
	}
	for w, wr := range runs[0].Workloads {
		if len(wr.Spans) == 0 {
			t.Errorf("%s: no spans recorded", wr.Name)
		}
		for name, v := range wr.Metrics {
			if exact(name) && runs[1].Workloads[w].Metrics[name].Value != v.Value {
				t.Errorf("%s: %s = %v, then %v with the same seed", wr.Name, name, v.Value, runs[1].Workloads[w].Metrics[name].Value)
			}
		}
		if wr.Metrics["engine.out_nnz_per_op"].Value == 0 {
			t.Errorf("%s: empty products", wr.Name)
		}
	}
}

// TestSpreadMatchesPythonQuantiles pins spread to the quartiles Python's
// statistics.quantiles(xs, n=4) reports, which the acceptance rule for
// the benchmark's repeatability uses.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, (8.25 - 2.75) / 5.5},
		{[]float64{3, 1, 2}, (3 - 1) / 2.0},
		{[]float64{1, 2}, (2.25 - 0.75) / 1.5},
		{[]float64{4}, 0},
	} {
		if got := spread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareStatuses(t *testing.T) {
	run := func(ops ...float64) []*Report {
		return []*Report{{Workloads: []*WorkloadReport{{
			Name:    TCSkewRef,
			Metrics: map[string]Value{"ops_per_s": {Value: median(ops), Rounds: ops}},
		}}}}
	}
	bench := &Benchmark{
		Workloads: []BenchWorkload{{Name: TCSkewRef}},
		EndToEnd:  []BenchMetric{{Name: "ops_per_s", Better: "higher", Bound: 0.1}},
	}
	for _, c := range []struct {
		b         []float64
		status    string
		regressed bool
	}{
		{[]float64{99, 100, 101}, "ok", false},
		{[]float64{79, 80, 81}, "regressed", true},
		{[]float64{129, 130, 131}, "improved", false},
		{[]float64{60, 100, 140}, "unresolved", false},
	} {
		var buf bytes.Buffer
		regressed := Compare(&buf, bench, run(99, 100, 101), run(c.b...))
		row := strings.Fields(strings.Split(buf.String(), "\n")[1])
		if regressed != c.regressed || row[len(row)-1] != c.status {
			t.Errorf("b rounds %v: regressed %v, table\n%s\nwant status %s", c.b, regressed, buf.String(), c.status)
		}
	}
}
