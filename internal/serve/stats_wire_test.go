package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"testing"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/serve/servetest"
)

// jsonKeys returns an object's keys, sorted.
func jsonKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestServeStatsWireGolden pins the /stats wire vocabulary key by key:
// every key of every session block, the admission block, and both
// shapes of a recent-miss entry (a complemented warm carries the two
// omitempty flags, a live plain miss neither). Uniform-scheme traffic
// leaves hybrid_family_rows out, the pool block has no poisoned key
// (faults.executors_discarded reports it), and sched.busy_nanos is an
// integer nanosecond count.
func TestServeStatsWireGolden(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(48, 4, 71))
	if resp := h.Post("/v1/warm?algorithm=msa&complement=1", body, nil); resp.Status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.Status, resp.Body)
	}
	if resp := h.Post("/v1/multiply?algorithm=msa&sched_stats=1&format=summary", body, nil); resp.Status != http.StatusOK {
		t.Fatalf("multiply: status %d: %s", resp.Status, resp.Body)
	}
	resp := h.Get("/stats")
	if resp.Status != http.StatusOK {
		t.Fatalf("/stats: status %d: %s", resp.Status, resp.Body)
	}
	var doc struct {
		Session      map[string]map[string]json.RawMessage `json:"session"`
		Admission    map[string]json.RawMessage            `json:"admission"`
		RecentMisses []map[string]json.RawMessage          `json:"recent_misses"`
	}
	if err := json.Unmarshal(resp.Body, &doc); err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{"admission": jsonKeys(doc.Admission)}
	for block, m := range doc.Session {
		got["session."+block] = jsonKeys(m)
	}
	for i, m := range doc.RecentMisses {
		got[fmt.Sprintf("recent_misses[%d]", i)] = jsonKeys(m)
	}
	want := map[string][]string{
		"session.cache":    {"bytes", "coalesced_misses", "entries", "evictions", "hits", "misses"},
		"session.store":    {"bytes", "evictions", "hits", "misses", "operands", "patterns", "puts", "reputs"},
		"session.budget":   {"max_bytes", "used_bytes"},
		"session.pool":     {"created", "discarded", "idle", "reused"},
		"session.sched":    {"blocks_claimed", "blocks_stolen", "busy_nanos", "passes", "worst_imbalance"},
		"session.faults":   {"exec_canceled", "executors_discarded", "kernel_panics"},
		"admission":        {"admitted", "canceled", "deadline_expired", "draining", "in_flight", "max_in_flight", "max_queue", "queue_depth", "queued", "rejected_draining", "shed"},
		"recent_misses[0]": {"a_fp", "b_fp", "complement", "mask_fp", "scheme", "warm"},
		"recent_misses[1]": {"a_fp", "b_fp", "mask_fp", "scheme"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("/stats keys drifted.\ngot:  %v\nwant: %v", got, want)
	}
	var busy int64
	if err := json.Unmarshal(doc.Session["sched"]["busy_nanos"], &busy); err != nil {
		t.Errorf("sched.busy_nanos is not an integer: %v", err)
	}
	var passes uint64
	if err := json.Unmarshal(doc.Session["sched"]["passes"], &passes); err != nil || passes == 0 {
		t.Errorf("sched.passes = %s, want the telemetry multiply recorded", doc.Session["sched"]["passes"])
	}
}

// TestServeWarmCacheWireKeys checks that /v1/warm reports its cache
// block in the /stats vocabulary: the same snake_case keys as
// session.cache, not Go field names.
func TestServeWarmCacheWireKeys(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(48, 4, 72))
	resp := h.Post("/v1/warm?algorithm=msa", body, nil)
	if resp.Status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.Status, resp.Body)
	}
	var warm struct {
		Warmed bool                       `json:"warmed"`
		Cache  map[string]json.RawMessage `json:"cache"`
	}
	if err := json.Unmarshal(resp.Body, &warm); err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Session struct {
			Cache map[string]json.RawMessage `json:"cache"`
		} `json:"session"`
	}
	if err := json.Unmarshal(h.Get("/stats").Body, &stats); err != nil {
		t.Fatal(err)
	}
	got, want := jsonKeys(warm.Cache), jsonKeys(stats.Session.Cache)
	if !warm.Warmed || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("warm response: warmed=%v cache keys %v, want /stats session.cache keys %v", warm.Warmed, got, want)
	}
}
