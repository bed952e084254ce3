// Serving masked products over the network: this example drives the
// real HTTP front-end (internal/serve, the same server mspgemm-serve
// runs) with concurrent clients issuing masked products over recurring
// structures — the paper's server scenario with actual requests on the
// wire instead of simulated traffic. It shows the full serving story:
//
//   - operands recur, so they are uploaded once (PUT /v1/operands) and
//     all multiply traffic names them by content reference — a few
//     dozen request bytes instead of megabytes — while the plan cache
//     answers everything after the first request per structure (warmed
//     via /v1/warm before traffic starts);
//   - admission control makes overload explicit: with more clients
//     than execution slots, excess requests queue and the rest are
//     shed with 429 + Retry-After, which the clients honor and retry;
//   - /stats reports the cache/pool/admission counters that explain
//     the latency distribution.
//
// By default the example hosts the server in-process on a loopback
// port; point -connect at a running mspgemm-serve to drive that
// instead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	maskedspgemm "maskedspgemm"
	"maskedspgemm/internal/serial"
	"maskedspgemm/internal/serve"
)

func main() {
	var (
		scale    = flag.Int("scale", 11, "R-MAT graph scale (2^scale vertices)")
		workers  = flag.Int("workers", 8, "concurrent client workers")
		requests = flag.Int("requests", 100, "requests per worker")
		inflight = flag.Int("max-inflight", 2, "server execution slots (small to show shedding)")
		maxQueue = flag.Int("max-queue", 4, "server wait-queue bound")
		connect  = flag.String("connect", "", "drive an external server URL instead of self-hosting")
	)
	flag.Parse()

	base := *connect
	if base == "" {
		var stop func()
		var err error
		base, stop, err = selfHost(*inflight, *maxQueue)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}

	g := maskedspgemm.RMAT(*scale, 8, 7)
	fmt.Printf("graph: %d vertices, %d edges; server: %s\n", g.Rows, g.NNZ()/2, base)

	// The recurring query shapes, encoded once: the graph itself (the
	// triangle-counting self-product), a sparser graph's self-product,
	// and that graph's product under its complemented mask (¬A ⊙ (A·A),
	// the betweenness shape). The server runs Hybrid on every request;
	// what matters to its cache is only that the structures repeat.
	sparse := encode(maskedspgemm.ErdosRenyi(g.Rows, 2, 99))
	queries := []struct {
		name   string
		params string
		body   []byte
		ref    string
	}{
		{name: "self-mask", body: encode(g)},
		{name: "sparse-graph", body: sparse},
		{name: "sparse-graph/complement", params: "complement=1", body: sparse},
	}

	// Pre-plan the known shapes so even the first requests hit. Warm and
	// multiply share the operands and options; the key normalization
	// guarantees the warmed plan serves them.
	client := &http.Client{Timeout: time.Minute}
	for _, q := range queries {
		resp, err := client.Post(base+"/v1/warm?"+q.params, "", bytes.NewReader(q.body))
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("warm %s: %d", q.name, resp.StatusCode)
		}
	}

	// Upload each recurring operand once; the traffic below names it by
	// content reference instead of re-shipping megabytes per request
	// (a= defaults both b and the mask to the same operand — the
	// self-mask shape every query here uses).
	for i := range queries {
		q := &queries[i]
		req, err := http.NewRequest(http.MethodPut, base+"/v1/operands", bytes.NewReader(q.body))
		if err != nil {
			log.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		var receipt struct {
			Operands []struct {
				Ref string `json:"ref"`
			} `json:"operands"`
		}
		err = json.NewDecoder(resp.Body).Decode(&receipt)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(receipt.Operands) != 1 {
			log.Fatalf("upload %s: status %d, %v", q.name, resp.StatusCode, err)
		}
		q.ref = receipt.Operands[0].Ref
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		sheds     int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			local := make([]time.Duration, 0, *requests)
			localSheds := 0
			for r := 0; r < *requests; r++ {
				q := queries[(worker+r)%len(queries)]
				t0 := time.Now()
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(base+"/v1/multiply?a="+q.ref+"&"+q.params, "", nil)
					if err != nil {
						log.Fatal(err)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests && attempt < 50 {
						// Shed: honor the server's backoff hint (scaled
						// down: this is a demo, not production patience).
						localSheds++
						after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
						time.Sleep(time.Duration(after) * time.Second / 100)
						continue
					}
					log.Fatalf("%s: status %d", q.name, resp.StatusCode)
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			latencies = append(latencies, local...)
			sheds += localSheds
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	total := len(latencies)
	fmt.Printf("served %d requests from %d workers in %v (%.0f req/s), %d sheds retried\n",
		total, *workers, elapsed, float64(total)/elapsed.Seconds(), sheds)
	if total > 0 {
		fmt.Printf("latency p50 %v  p95 %v  p99 %v  max %v\n",
			latencies[total/2], latencies[total*95/100], latencies[total*99/100], latencies[total-1])
	}

	// The server-side story: cache hits ≈ requests, misses ≈ structures,
	// admission counters show how overload was absorbed.
	resp, err := client.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Session struct {
			Cache struct {
				Hits    uint64 `json:"hits"`
				Misses  uint64 `json:"misses"`
				Entries int    `json:"entries"`
				Bytes   int64  `json:"bytes"`
			} `json:"cache"`
			Pool struct {
				Created uint64 `json:"created"`
				Reused  uint64 `json:"reused"`
				Idle    int    `json:"idle"`
			} `json:"pool"`
			Store struct {
				Hits     uint64 `json:"hits"`
				Operands int    `json:"operands"`
				Bytes    int64  `json:"bytes"`
			} `json:"store"`
			Faults struct {
				ExecCanceled       uint64 `json:"exec_canceled"`
				KernelPanics       uint64 `json:"kernel_panics"`
				ExecutorsDiscarded uint64 `json:"executors_discarded"`
			} `json:"faults"`
		} `json:"session"`
		Admission struct {
			Admitted uint64 `json:"admitted"`
			Queued   uint64 `json:"queued"`
			Shed     uint64 `json:"shed"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan cache: %d hits / %d misses (%d structures cached, ~%d KiB analysis)\n",
		st.Session.Cache.Hits, st.Session.Cache.Misses, st.Session.Cache.Entries, st.Session.Cache.Bytes/1024)
	fmt.Printf("executor pool: %d created, %d reused, %d idle retained\n",
		st.Session.Pool.Created, st.Session.Pool.Reused, st.Session.Pool.Idle)
	fmt.Printf("admission: %d admitted, %d queued, %d shed\n",
		st.Admission.Admitted, st.Admission.Queued, st.Admission.Shed)
	// All zeros in a healthy run — the line is here because a nonzero
	// kernel_panics on a dashboard means containment is working, not
	// that the server is down.
	fmt.Printf("faults: %d canceled, %d kernel panics, %d executors discarded\n",
		st.Session.Faults.ExecCanceled, st.Session.Faults.KernelPanics, st.Session.Faults.ExecutorsDiscarded)
	var inlineBytes int64
	for _, q := range queries {
		inlineBytes += int64(len(q.body))
	}
	fmt.Printf("operand store: %d hits over %d resident operands (~%d KiB); by-reference traffic avoided re-sending ~%d KiB of request bodies\n",
		st.Session.Store.Hits, st.Session.Store.Operands, st.Session.Store.Bytes/1024,
		inlineBytes/int64(len(queries))*int64(total)/1024)
}

// encode renders a matrix in the MSPG wire format.
func encode(m *maskedspgemm.Matrix) []byte {
	var buf bytes.Buffer
	if err := serial.Write(&buf, m); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}

// selfHost starts the front-end on a loopback port and returns its
// base URL and a graceful stop (drain, then close).
func selfHost(inflight, maxQueue int) (string, func(), error) {
	front := serve.New(serve.Config{MaxInFlight: inflight, MaxQueue: maxQueue, QueueTimeout: 10 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: front}
	go srv.Serve(ln)
	stop := func() {
		<-front.Drain()
		srv.Close()
	}
	return "http://" + ln.Addr().String(), stop, nil
}
