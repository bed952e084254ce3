package trajectory

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"maskedspgemm/internal/serial"
	"maskedspgemm/internal/serve"
	"maskedspgemm/internal/store"
)

// rig is one workload's server, listening on loopback, and the HTTP
// client that drives it.
type rig struct {
	in     *inputs
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	query  string

	// aRef and maskFPs are the content addresses the set-up uploads
	// landed under.
	aRef    store.Ref
	maskFPs []uint64
	// next numbers ops across warm-up and every measured phase, so
	// deltas never repeat and mask cycling never restarts.
	next atomic.Int64
}

// startRig serves a fresh server on a loopback port, uploads the
// workload's operands, fills the memory budget of delta workloads, and
// runs the warm-up. Everything it does counts as set-up.
func startRig(sp spec, in *inputs, conns int, small bool) (*rig, error) {
	srv := serve.New(serve.Config{MaxInFlight: sp.maxInFlight, SessionOptions: sp.sessionOptions(small)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("trajectory: listen: %w", err)
	}
	r := &rig{
		in:     in,
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
		query: "algorithm=hybrid",
	}
	if in.delta {
		r.query += "&complement=1"
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	if err := r.upload(sp, small); err != nil {
		r.close()
		return nil, err
	}
	t := r.drive(conns, time.Time{}, sp.warmOps)
	if t.failed > 0 {
		r.close()
		return nil, fmt.Errorf("trajectory: warm-up: %d of %d ops failed: %s", t.failed, t.attempted, t.errs[0])
	}
	return r, nil
}

// upload files the set-up operands: A (unless it travels inline), each
// sweep mask, and, for deltas, enough value sets to fill the memory
// budget so that every later upload evicts.
func (r *rig) upload(sp spec, small bool) error {
	if r.in.inline {
		return nil
	}
	var buf bytes.Buffer
	if err := serial.Write(&buf, r.in.a); err != nil {
		return err
	}
	ref, err := r.put("", buf.Bytes())
	if err != nil {
		return err
	}
	r.aRef = ref
	for _, m := range r.in.masks {
		buf.Reset()
		if err := serial.Write(&buf, maskMatrix(m)); err != nil {
			return err
		}
		ref, err := r.put("", buf.Bytes())
		if err != nil {
			return err
		}
		r.maskFPs = append(r.maskFPs, ref.Pattern)
	}
	for n := prefillCount(sp, r.in, small); n > 0; n-- {
		if _, err := r.put(r.valuesFor(), valuesBody(r.in.request(r.next.Add(1)-1).values)); err != nil {
			return err
		}
	}
	return nil
}

// prefillCount is how many value sets fill a delta workload's memory
// budget, plus a margin for the plan and the shared pattern.
func prefillCount(sp spec, in *inputs, small bool) int {
	if !in.delta {
		return 0
	}
	return int(sp.budget(small)/(8*in.a.NNZ())) + 8
}

func (r *rig) valuesFor() string {
	return fmt.Sprintf("values_for=%016x", r.aRef.Pattern)
}

// put uploads one operand body (or, with a values_for query, a values
// delta) and returns the stored operand's ref.
func (r *rig) put(query string, body []byte) (store.Ref, error) {
	req, err := http.NewRequest(http.MethodPut, r.base+"/v1/operands?"+query, bytes.NewReader(body))
	if err != nil {
		return store.Ref{}, err
	}
	data, err := r.exchange(req)
	if err != nil {
		return store.Ref{}, fmt.Errorf("upload: %w", err)
	}
	var receipt struct {
		Operands []struct {
			Ref string `json:"ref"`
		} `json:"operands"`
	}
	if err := json.Unmarshal(data, &receipt); err != nil || len(receipt.Operands) != 1 {
		return store.Ref{}, fmt.Errorf("upload: unexpected receipt %q", data)
	}
	return store.ParseRef(receipt.Operands[0].Ref)
}

// exchange sends req and returns the body of a 2xx response; any other
// status is an error carrying the server's message.
func (r *rig) exchange(req *http.Request) ([]byte, error) {
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// valuesBody encodes a values-only delta: little-endian float64 words.
func valuesBody(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for j, v := range vals {
		binary.LittleEndian.PutUint64(b[8*j:], math.Float64bits(v))
	}
	return b
}

// do runs one op over HTTP — the values delta, then the multiply — and
// checks the result against the oracle. It reports the request and
// response bytes.
func (r *rig) do(q request) (in, out int64, err error) {
	ref := r.aRef
	if q.values != nil {
		body := valuesBody(q.values)
		in += int64(len(body))
		if ref, err = r.put(r.valuesFor(), body); err != nil {
			return in, out, err
		}
	}
	u := r.base + "/v1/multiply?" + r.query
	var body []byte
	if r.in.inline {
		body = r.in.body
	} else {
		u += "&a=" + url.QueryEscape(ref.String())
		if len(r.maskFPs) > 0 {
			u += fmt.Sprintf("&mask=%016x", r.maskFPs[q.k])
		}
	}
	in += int64(len(body))
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return in, out, err
	}
	data, err := r.exchange(req)
	out = int64(len(data))
	if err != nil {
		return in, out, fmt.Errorf("multiply: %w", err)
	}
	got, err := serial.Read(bytes.NewReader(data))
	if err != nil {
		return in, out, fmt.Errorf("decode result: %w", err)
	}
	return in, out, r.in.check(got, q)
}

// tally is what a closed loop observed: latencies of the ops that
// succeeded, counts, bytes on the wire, and the first few failures.
type tally struct {
	lat               []time.Duration
	attempted, failed int64
	bytesIn, bytesOut int64
	errs              []string
	elapsed           time.Duration
}

// maxErrs bounds the failure messages a tally keeps.
const maxErrs = 4

func (t *tally) add(o tally) {
	t.lat = append(t.lat, o.lat...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.bytesIn += o.bytesIn
	t.bytesOut += o.bytesOut
	for _, e := range o.errs {
		if len(t.errs) < maxErrs {
			t.errs = append(t.errs, e)
		}
	}
}

// drive runs clients closed-loop: each sends its next op only when the
// previous one has completed. Clients stop at stopAt (when non-zero) or
// once this call has started limit ops (when positive).
func (r *rig) drive(clients int, stopAt time.Time, limit int64) tally {
	start := time.Now()
	end := r.next.Load() + limit
	per := make([]tally, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := range per {
		go func(t *tally) {
			defer wg.Done()
			for {
				if !stopAt.IsZero() && !time.Now().Before(stopAt) {
					return
				}
				i := r.next.Add(1) - 1
				if limit > 0 && i >= end {
					return
				}
				t0 := time.Now()
				in, out, err := r.do(r.in.request(i))
				d := time.Since(t0)
				t.attempted++
				t.bytesIn += in
				t.bytesOut += out
				if err != nil {
					t.failed++
					if len(t.errs) < maxErrs {
						t.errs = append(t.errs, fmt.Sprintf("op %d: %v", i, err))
					}
					continue
				}
				t.lat = append(t.lat, d)
			}
		}(&per[c])
	}
	wg.Wait()
	var all tally
	for _, t := range per {
		all.add(t)
	}
	all.elapsed = time.Since(start)
	return all
}

// serverStats are the /stats counters the per-layer metrics read.
type serverStats struct {
	Session struct {
		Cache struct {
			Hits      uint64 `json:"hits"`
			Misses    uint64 `json:"misses"`
			Evictions uint64 `json:"evictions"`
		} `json:"cache"`
		Store struct {
			Evictions uint64 `json:"evictions"`
		} `json:"store"`
	} `json:"session"`
	Admission struct {
		Admitted uint64 `json:"admitted"`
		Queued   uint64 `json:"queued"`
	} `json:"admission"`
}

func (r *rig) stats() (serverStats, error) {
	var st serverStats
	req, err := http.NewRequest(http.MethodGet, r.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	data, err := r.exchange(req)
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, json.Unmarshal(data, &st)
}

// close drains the server, shuts the listener down, and waits for the
// serving goroutine to return.
func (r *rig) close() {
	<-r.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Every client has stopped, so Shutdown finds only idle connections;
	// Serve's return value is ErrServerClosed, or a listener failure the
	// ops that ran have already reported.
	_ = r.hs.Shutdown(ctx)
	<-r.served
	r.client.CloseIdleConnections()
}

// percentile returns the nearest-rank p-quantile of ds, in ms.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / float64(time.Millisecond)
}
