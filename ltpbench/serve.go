package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ltp"
	"ltp/internal/server"
)

// serveReadsPerWrite sets the request mix: each client sends this many
// cache-hit reads, then one write. With four reads to a write, the
// median request is a read and the 90th percentile a write.
const serveReadsPerWrite = 4

// serveWorkload drives an in-process campaign service over loopback
// with one keep-alive client per CPU. Reads are /v1/run cache hits on
// cycle-tier specs primed at set-up; writes are model-tier /v1/run
// misses on fresh seeds, each simulating, filling the cache and
// appending to the result store.
type serveWorkload struct {
	cfg     config
	v       *verifier
	dir     string
	engine  *ltp.Engine
	srv     *server.Server
	hs      *http.Server
	served  chan error // the http.Server's exit
	url     string
	client  *http.Client
	reads   []serveReq
	readRes []ltp.RunResult // primed results, parallel to reads

	mu     sync.Mutex
	writes []serveWrite // every timed write, for the end-of-window check
}

// serveReq is one request body and its reference-table key.
type serveReq struct {
	key  string
	body []byte
	req  server.RunRequest
}

// serveWrite is a timed write and the digest it was served.
type serveWrite struct {
	serveReq
	digest string
}

func newServe(cfg config) workload { return &serveWorkload{cfg: cfg} }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain request structs always marshal
	}
	return b
}

// readReqs are the primed specs: four scenario families, LTP off and
// on, on the small core.
func (w *serveWorkload) readReqs() []serveReq {
	var out []serveReq
	for _, sc := range []string{"hashjoin", "phased", "branchy", "ptrchase"} {
		for _, on := range []bool{false, true} {
			r := server.RunRequest{Scenario: sc, Seed: w.cfg.seed, UseLTP: on,
				WarmInsts: budget(w.cfg, 100_000), MaxInsts: budget(w.cfg, 30_000),
				Config: &server.ConfigRequest{IQSize: 32, IntRegs: 96, FPRegs: 96}}
			out = append(out, serveReq{key: fmt.Sprintf("serve/read/%s/ltp=%v", sc, on), body: mustJSON(r), req: r})
		}
	}
	return out
}

// writeReq is client c's n-th write: a model-tier run on a seed no
// other request of the run uses.
func (w *serveWorkload) writeReq(c, n int) serveReq {
	sc := []string{"hashjoin", "phased"}[n%2]
	r := server.RunRequest{Scenario: sc, Seed: w.cfg.seed*1_000_000 + int64(c)*100_000 + int64(n) + 1,
		UseLTP: true, Backend: ltp.BackendModel, WarmInsts: budget(w.cfg, 60_000), MaxInsts: budget(w.cfg, 20_000),
		Config: &server.ConfigRequest{IQSize: 32, IntRegs: 96, FPRegs: 96}}
	return serveReq{key: fmt.Sprintf("serve/write/c%d/%d", c, n), body: mustJSON(r), req: r}
}

func (w *serveWorkload) setup(ctx context.Context, v *verifier) error {
	w.v = v
	dir, err := os.MkdirTemp(w.cfg.tmpRoot, "serve-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.engine, err = ltp.NewEngine(ltp.EngineConfig{Parallelism: runtime.NumCPU(),
		StorePath: filepath.Join(dir, "results.store")})
	if err != nil {
		return err
	}
	w.srv, err = server.New(server.Config{Engine: w.engine})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String() + "/v1/run"
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}}

	// One untimed pass over every distinct op: prime the reads (each a
	// miss), read each back (a hit), and one write on a seed the timed
	// writes never use.
	w.reads = w.readReqs()
	for _, r := range w.reads {
		res, err := w.post(ctx, r.body, "miss")
		if err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		v.reference(r.key, digest(res))
		w.readRes = append(w.readRes, res)
	}
	for _, r := range w.reads {
		if _, err := w.post(ctx, r.body, "hit"); err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
	}
	if _, err := w.post(ctx, w.writeReq(runtime.NumCPU(), 0).body, "miss"); err != nil {
		return fmt.Errorf("set-up write: %w", err)
	}
	return nil
}

// post sends one /v1/run request and checks the cache outcome.
func (w *serveWorkload) post(ctx context.Context, body []byte, want string) (ltp.RunResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return ltp.RunResult{}, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return ltp.RunResult{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return ltp.RunResult{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return ltp.RunResult{}, fmt.Errorf("status %s: %s", resp.Status, b)
	}
	var rr server.RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		return ltp.RunResult{}, err
	}
	if rr.Cache != want {
		return rr.Result, fmt.Errorf("cache outcome %q, want %q", rr.Cache, want)
	}
	return rr.Result, nil
}

func (w *serveWorkload) clients() int { return runtime.NumCPU() }
func (w *serveWorkload) round() int   { return serveReadsPerWrite + 1 }

// op sends client c's i-th request: reads rotate through the primed
// specs, offset per client; every fifth request is a write.
func (w *serveWorkload) op(ctx context.Context, tr *tracer, parent, c, i int) opResult {
	if i%w.round() == serveReadsPerWrite {
		n := i / w.round()
		r := w.writeReq(c, n)
		id := tr.begin("server.write", parent)
		res, err := w.post(ctx, r.body, "miss")
		tr.end(id)
		if err != nil {
			w.v.say(r.key, "%v", err)
			return opResult{}
		}
		w.mu.Lock()
		w.writes = append(w.writes, serveWrite{r, digest(res)})
		w.mu.Unlock()
		// Verified against a direct recomputation in finish.
		return opResult{cells: 1, insts: res.Committed, ok: true}
	}
	k := (i - i/w.round() + c*len(w.reads)/w.clients()) % len(w.reads)
	r := w.reads[k]
	id := tr.begin("server.read", parent)
	res, err := w.post(ctx, r.body, "hit")
	tr.end(id)
	if err != nil {
		w.v.say(r.key, "%v", err)
		return opResult{}
	}
	return opResult{cells: 1, ok: w.v.check(r.key, digest(res))}
}

// finish recomputes every timed write directly with ltp.RunContext, one
// worker per CPU, and checks the served digest against it; then it
// checks that the result store holds one record per simulated spec.
func (w *serveWorkload) finish(ctx context.Context) (attempted, failed int) {
	w.mu.Lock()
	writes := w.writes
	w.writes = nil
	w.mu.Unlock()
	lim := server.DefaultLimits()
	var next atomic.Int64
	var bad atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(writes)); i = next.Add(1) - 1 {
				wr := writes[i]
				spec, err := wr.req.Spec(lim)
				if err == nil {
					var res ltp.RunResult
					if res, err = ltp.RunContext(ctx, spec); err == nil {
						w.v.reference(wr.key, digest(res))
					}
				}
				if err != nil {
					w.v.say(wr.key, "recomputing: %v", err)
				}
				if err != nil || !w.v.check(wr.key, wr.digest) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	failed = int(bad.Load())
	attempted = 1 // the store check
	want := len(w.reads) + 1 + len(writes)
	if st, ok := w.engine.StoreStats(); !ok || st.Records != want {
		fmt.Fprintf(os.Stderr, "ltpbench: result store holds %d records, want %d\n", st.Records, want)
		failed++
	}
	return attempted, failed
}

func (w *serveWorkload) accuracy(ctx context.Context) (float64, float64, error) {
	lim := server.DefaultLimits()
	var cyc, mod, smp []float64
	for i, r := range w.reads {
		spec, err := r.req.Spec(lim)
		if err != nil {
			return 0, 0, err
		}
		m, err := ltp.RunContext(ctx, withBackend(spec, ltp.BackendModel))
		if err != nil {
			return 0, 0, fmt.Errorf("%s on the model tier: %w", r.key, err)
		}
		s, err := ltp.RunContext(ctx, withBackend(spec, ltp.BackendSampled))
		if err != nil {
			return 0, 0, fmt.Errorf("%s on the sampled tier: %w", r.key, err)
		}
		cyc = append(cyc, w.readRes[i].CPI)
		mod = append(mod, m.CPI)
		smp = append(smp, s.CPI)
	}
	return cpiErrPct(mod, cyc), cpiErrPct(smp, cyc), nil
}

func (w *serveWorkload) probe() probeInput {
	lim := server.DefaultLimits()
	var specs []namedSpec
	for _, r := range w.reads {
		spec, err := r.req.Spec(lim)
		if err == nil {
			specs = append(specs, namedSpec{key: r.key, spec: spec})
		}
	}
	var programs []program
	for _, r := range w.reads {
		if r.req.UseLTP {
			programs = append(programs, program{scenario: r.req.Scenario, seed: r.req.Seed})
		}
	}
	return probeInput{specs: specs, programs: programs, engine: w.engine, server: w}
}

func (w *serveWorkload) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.hs.Shutdown(ctx) // a drain timeout leaves nothing to clean up
		cancel()
		if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ltpbench: serve:", err)
		}
		w.client.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.engine != nil {
		w.engine.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
