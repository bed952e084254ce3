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
// omitempty flags, a live plain miss neither). The Hybrid plans report
// hybrid_family_rows, and the pool block has no poisoned key
// (faults.executors_discarded reports it). The multiply is sent twice,
// so store.body_hits reads exactly the one digest hit of the second.
// Its ER values are not unit, so store.unit_bytes reads 0.
func TestServeStatsWireGolden(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(48, 4, 71))
	if resp := h.Post("/v1/warm?complement=1", body, nil); resp.Status != http.StatusOK {
		t.Fatalf("warm: status %d: %s", resp.Status, resp.Body)
	}
	for range 2 {
		if resp := h.Post("/v1/multiply?format=summary", body, nil); resp.Status != http.StatusOK {
			t.Fatalf("multiply: status %d: %s", resp.Status, resp.Body)
		}
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
		"session.cache":    {"bitmap_plans", "bytes", "coalesced_misses", "entries", "evictions", "hits", "hybrid_family_rows", "misses", "replayed_plans", "schedule_bytes"},
		"session.store":    {"body_hits", "bytes", "evictions", "hits", "misses", "operands", "patterns", "puts", "reputs", "unit_bytes"},
		"session.budget":   {"max_bytes", "used_bytes"},
		"session.pool":     {"created", "discarded", "idle", "reused"},
		"session.faults":   {"exec_canceled", "executors_discarded", "kernel_panics"},
		"admission":        {"admitted", "canceled", "deadline_expired", "draining", "in_flight", "max_in_flight", "max_queue", "queue_depth", "queued", "rejected_draining", "shed"},
		"recent_misses[0]": {"a_fp", "b_fp", "complement", "mask_fp", "scheme", "warm"},
		"recent_misses[1]": {"a_fp", "b_fp", "mask_fp", "scheme"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("/stats keys drifted.\ngot:  %v\nwant: %v", got, want)
	}
	var bodyHits uint64
	if err := json.Unmarshal(doc.Session["store"]["body_hits"], &bodyHits); err != nil || bodyHits != 1 {
		t.Errorf("store.body_hits = %s, want 1 (the second multiply's body)", doc.Session["store"]["body_hits"])
	}
	if got := string(doc.Session["store"]["unit_bytes"]); got != "0" {
		t.Errorf("store.unit_bytes = %s, want 0 (no operand is unit-valued)", got)
	}
}

// TestServeWarmCacheWireKeys checks that /v1/warm reports its cache
// block in the /stats vocabulary: the same snake_case keys as
// session.cache, not Go field names.
func TestServeWarmCacheWireKeys(t *testing.T) {
	h := servetest.Start(t, New(Config{}))
	body := servetest.EncodeSerial(t, maskedspgemm.ErdosRenyi(48, 4, 72))
	resp := h.Post("/v1/warm", body, nil)
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
