package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/flightrec"
	"repro/internal/jit"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// Serve workload sizing.  README.md records the same figures.
const (
	// hotConns and compileConns are each workload's keep-alive
	// connections, closed and open phases alike.  serve-hot uses one:
	// with two, the two clients and the server saturate both CPUs of a
	// small host, and the closed phase's p99 measured the scheduler.
	hotConns     = 1
	compileConns = 2
	serveTenants = 4
	// serveWindow is one closed-phase window of an untraced serve run.
	serveWindow = time.Second
	// hotResident is serve-hot's warm set: programs compiled in set-up
	// and then executed by key.
	hotResident = 64
	// hotRate and compileRate are the open phases' Poisson arrival rates
	// (requests/s): about a third and 40% of each workload's closed-phase
	// ok_per_s on the commit that introduced the benchmark.  At 7000/s,
	// a host slowed by its neighbours pushed serve-hot's open phase past
	// its knee and p50_us moved several-fold between runs.
	hotRate     = 3000
	compileRate = 2500
	// hotCap and compileCap bound how many operations one closed window
	// (per second of it) may issue: about twice the closed-phase rate.
	// Operations are encoded before their window starts.
	hotCap     = 40000
	compileCap = 12000
	// compileEntriesPerShard is serve-compile's per-shard cache bound,
	// the one setting that differs from vcoded's defaults.  Set-up fills
	// every shard to it, so every miss in the timed phases evicts.
	compileEntriesPerShard = 8
	compileFill            = 40 * compileEntriesPerShard
	// compileBodies is how many generated programs serve-compile's
	// requests are drawn from; each request re-salts one, so its text and
	// key are never seen before while its reference result is known.
	compileBodies = 2048
	compileSalt0  = 1 << 20
	replayOps     = 1500
	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 9
	// cyclePrefix is how many leading closed-phase operations
	// sim_cycles_per_call averages over, so it is the same on every run
	// of one seed however many operations the phase completes.
	cyclePrefix = 512
)

var (
	// hotShape sizes serve-hot's programs: about 400 simulated
	// instructions per call.
	hotShape = tinycShape{MinStmts: 12, MaxStmts: 28, MaxFuncs: 3, Work: 400}
	// compileShape sizes serve-compile's never-seen programs: 1–3
	// functions, 10–30 statements, a short loop.
	compileShape = tinycShape{MinStmts: 10, MaxStmts: 30, MaxFuncs: 3, Work: 150}
)

// taxonomy is the server's published error-code set; any other code in a
// response fails the run.
var taxonomy = map[string]bool{}

func init() {
	for _, c := range []server.Code{
		server.CodeBadRequest, server.CodeUnknownTenant, server.CodeNotFound,
		server.CodeQueueFull, server.CodeQuotaConcurrency, server.CodeQuotaCodeBytes,
		server.CodeQuotaFuel, server.CodeVerifyReject, server.CodeCompileError,
		server.CodeCompilePanic, server.CodeFuelExhausted, server.CodeDeadline,
		server.CodeTrapPanic, server.CodeSimPanic, server.CodeInjectedFault,
		server.CodeExecError, server.CodeShuttingDown, server.CodeRateLimited,
		server.CodeCircuitOpen, server.CodeOverloaded,
	} {
		taxonomy[string(c)] = true
	}
}

// vcodedConfig is cmd/vcoded's default configuration: mips, 4 shards, 2
// workers per shard, no rate limit, no journal, unknown tenants admitted
// under the default quotas, SLO watchdog on with its default objectives.
func vcodedConfig() server.Config {
	return server.Config{
		Backend:              backends[0],
		Shards:               4,
		WorkersPerShard:      2,
		MaxEntriesPerShard:   512,
		MaxCodeBytesPerShard: 1 << 20,
		QueueBound:           64,
		CallTimeout:          2 * time.Second,
		DefaultQuota: server.Quota{
			FuelPerCall:           1 << 20,
			MaxResidentBytes:      256 << 10,
			MaxCompileConcurrency: 4,
		},
		AllowUnknownTenants: true,
		FsyncInterval:       2 * time.Millisecond,
		CheckpointInterval:  30 * time.Second,
		BreakerThreshold:    3,
		BreakerCooldown:     5 * time.Second,
		Logger:              slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// liveServer is an in-process server behind a real 127.0.0.1 listener,
// with the keep-alive client the load phases share.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startServer(cfg server.Config, conns int) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Recover("", ""); err != nil {
		srv.Close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

func (ls *liveServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = ls.hs.Shutdown(ctx) // a forced close still ends Serve below
	<-ls.served
	ls.client.CloseIdleConnections()
	ls.srv.Close()
}

// wireResp is the union of the server's exec, compile and error bodies.
type wireResp struct {
	Key    string      `json:"key"`
	Cached bool        `json:"cached"`
	Result json.Number `json:"result"`
	Cycles uint64      `json:"cycles"`
	Insns  uint64      `json:"insns"`
	WallNS int64       `json:"wall_ns"`
	Error  *struct {
		Code string `json:"code"`
	} `json:"error"`
}

// errTransport marks a request that got no HTTP response.
var errTransport = errors.New("transport error")

func (ls *liveServer) post(path string, body []byte) (int, wireResp, error) {
	var wr wireResp
	resp, err := ls.client.Post(ls.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, wr, fmt.Errorf("%w: %v", errTransport, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, wr, fmt.Errorf("%w: %v", errTransport, err)
	}
	if err := json.Unmarshal(raw, &wr); err != nil {
		return resp.StatusCode, wr, fmt.Errorf("undecodable %d response %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, wr, nil
}

// serveOp is one request of a serve workload: its body and the result
// the reference interpreter computed for it.
type serveOp struct {
	body []byte
	want int32
	src  string // tiny-C source (for the parse/compile layer replays)
}

// execBody encodes a /v1/exec request (or, with arg noArg, a
// /v1/compile request).
func execBody(tenant, key, source string, arg int32) []byte {
	req := map[string]any{"tenant": tenant}
	if key != "" {
		req["key"] = key
	} else {
		req["lang"] = "tinyc"
		req["source"] = source
	}
	if arg != noArg {
		req["args"] = []int32{arg}
	}
	b, _ := json.Marshal(req) // maps of strings and ints always encode
	return b
}

// noArg marks a request without arguments.
const noArg = -1

func tenantOf(i int) string { return fmt.Sprintf("tenant%d", i%serveTenants) }

// Operation streams: each phase draws its operations from its own
// stream, so operation i of a stream is the same on every run of a seed.
const (
	opsClosed uint64 = iota
	opsOpen
	opsReplay
)

// serveInputs are a serve workload's generated programs and arrival
// schedules, all made before any server exists.
type serveInputs struct {
	hot  bool
	seed int64
	// progs: serve-hot's resident set, or serve-compile's program bodies
	// (the first compileFill of which fill the cache in set-up).
	progs []tinycProgram
	due   []time.Duration // the traced run's open-phase arrival offsets
	// hotBodies[p][v] is serve-hot's exec-by-key body of program p,
	// variant v, set once set-up has produced the keys.
	hotBodies [][][]byte
}

func makeServeInputs(cfg runConfig, hot bool, openPhase time.Duration) (*serveInputs, error) {
	in := &serveInputs{hot: hot, seed: cfg.Seed}
	rate, n, shape := float64(compileRate), compileBodies, compileShape
	if hot {
		rate, n, shape = hotRate, hotResident, hotShape
	}
	in.due = arrivals(cfg.Seed, 0, rate, openPhase)
	progs, err := genPrograms(cfg.Seed, n, shape)
	if err != nil {
		return nil, err
	}
	in.progs = progs
	return in, nil
}

// op returns operation i of a stream: serve-hot executes a resident
// program by key as its owning tenant; serve-compile sends a program body
// under a salt no other request uses.
func (in *serveInputs) op(stream uint64, i int) serveOp {
	r := newRNG(in.seed, streamSchedule, stream<<40|uint64(i))
	p, v := r.intn(len(in.progs)), r.intn(callVariants)
	prog := in.progs[p]
	if in.hot {
		return serveOp{body: in.hotBodies[p][v], want: prog.Want[v], src: prog.Source}
	}
	src := prog.withSalt(compileSalt0 + 3*i + int(stream))
	return serveOp{body: execBody(tenantOf(i), "", src, prog.Args[v]), want: prog.Want[v], src: src}
}

// batch encodes operations [from, from+n) of a stream.
func (in *serveInputs) batch(stream uint64, from, n int) []serveOp {
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = in.op(stream, from+i)
	}
	return ops
}

// closedBatch encodes the operations a closed phase of length d may send.
func (in *serveInputs) closedBatch(from int, d time.Duration) []serveOp {
	capacity := float64(compileCap)
	if in.hot {
		capacity = hotCap
	}
	return in.batch(opsClosed, from, int(capacity*d.Seconds())+1)
}

// genPrograms generates the first n programs of the seed's tiny-C stream
// in parallel.
func genPrograms(seed int64, n int, shape tinycShape) ([]tinycProgram, error) {
	out := make([]tinycProgram, n)
	errs := make([]error, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				p, err := genTinyC(seed, i, shape)
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = p
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hotSetup builds a server and compiles the warm set through the
// listener; it returns the programs' keys.
func hotSetup(warm []tinycProgram) (*liveServer, []string, error) {
	ls, err := startServer(vcodedConfig(), hotConns)
	if err != nil {
		return nil, nil, err
	}
	keys := make([]string, len(warm))
	for i, p := range warm {
		status, wr, err := ls.post("/v1/compile", execBody(tenantOf(i), "", p.Source, noArg))
		if err != nil || status != http.StatusOK {
			ls.close()
			return nil, nil, fmt.Errorf("warming program %d: status %d %+v %v", i, status, wr.Error, err)
		}
		keys[i] = wr.Key
	}
	return ls, keys, nil
}

// compileSetup builds a server with the small per-shard cache bound and
// compiles fill programs until every shard is full.
func compileSetup(fill []tinycProgram) (*liveServer, error) {
	cfg := vcodedConfig()
	cfg.MaxEntriesPerShard = compileEntriesPerShard
	ls, err := startServer(cfg, compileConns)
	if err != nil {
		return nil, err
	}
	for i, p := range fill {
		status, wr, err := ls.post("/v1/compile", execBody(tenantOf(i), "", p.Source, noArg))
		if err != nil || status != http.StatusOK {
			ls.close()
			return nil, fmt.Errorf("filling the cache, program %d: status %d %+v %v", i, status, wr.Error, err)
		}
		if i%compileEntriesPerShard == compileEntriesPerShard-1 && shardsFull(ls.srv) {
			return ls, nil
		}
	}
	ls.close()
	return nil, fmt.Errorf("%d programs did not fill every shard to %d entries", len(fill), compileEntriesPerShard)
}

func shardsFull(srv *server.Server) bool {
	for _, sh := range srv.StatsView().Shards {
		if sh.Units < compileEntriesPerShard {
			return false
		}
	}
	return true
}

// serverTotals sums the server's request counters and the shards' cache
// counters.
type serverTotals struct {
	requests, errors                             uint64
	hits, misses, evictions, compiles, compileNS uint64
	units                                        int
	unitBytes                                    int64
}

func totals(srv *server.Server) serverTotals {
	st := srv.StatsView()
	t := serverTotals{requests: st.Requests, errors: st.Errors}
	for _, sh := range st.Shards {
		t.hits += sh.Cache.Hits
		t.misses += sh.Cache.Misses
		t.evictions += sh.Cache.Evictions
		t.compiles += sh.Cache.Compiles
		t.compileNS += sh.Cache.CompileNanos
		t.units += sh.Units
		t.unitBytes += sh.UnitBytes
	}
	return t
}

// serveRun is one serve workload run in progress: the live server, the
// checks every response goes through, and what the responses report.
type serveRun struct {
	hot    bool
	conns  int // keep-alive connections, one worker each
	ls     *liveServer
	cycles []uint64 // per closed-phase op index < cyclePrefix
	// setupCG is the codegen telemetry of every set-up's compiles.
	setupCG  codegenSnap
	transErr atomic.Int64
	// tracing collects each response's call wall time and retired
	// instructions.
	tracing atomic.Bool
	mu      sync.Mutex
	wallNS  []float64
	insns   []float64
}

// do sends one op and checks its response against the reference and
// against the workload's cache expectation.  idx is the op's index in
// the closed phase (-1 elsewhere).
func (r *serveRun) do(op serveOp, l *lane, req uint64, idx int) (outcome, error) {
	root := l.begin("loadgen.op", -1, req)
	defer l.end(root)
	rt := l.begin("http.roundtrip", root, req)
	status, wr, err := r.ls.post("/v1/exec", op.body)
	l.end(rt)
	if errors.Is(err, errTransport) {
		r.transErr.Add(1)
		return opFailed, nil
	}
	if err != nil {
		return opFailed, err
	}
	if status != http.StatusOK {
		if wr.Error == nil || !taxonomy[wr.Error.Code] {
			return opFailed, fmt.Errorf("status %d with an error code outside the server's taxonomy: %+v", status, wr.Error)
		}
		return opFailed, nil
	}
	if err := checkExec(wr, op, r.hot); err != nil {
		return opFailed, err
	}
	if idx >= 0 && idx < len(r.cycles) {
		r.cycles[idx] = wr.Cycles
	}
	if r.tracing.Load() {
		r.mu.Lock()
		r.wallNS = append(r.wallNS, float64(wr.WallNS))
		r.insns = append(r.insns, float64(wr.Insns))
		r.mu.Unlock()
	}
	return opOK, nil
}

// checkExec compares a successful exec response with the reference
// result and with the workload's cache expectation: every serve-hot
// request hits, every serve-compile request misses.
func checkExec(wr wireResp, op serveOp, hot bool) error {
	if wr.Result.String() != strconv.Itoa(int(op.want)) {
		return fmt.Errorf("wrong result %s, reference interpreter says %d (request %.200s)", wr.Result, op.want, op.body)
	}
	if wr.Cached != hot {
		return fmt.Errorf("cached=%v, but every request of this workload should be a %s (request %.200s)",
			wr.Cached, map[bool]string{true: "hit", false: "miss"}[hot], op.body)
	}
	return nil
}

// checkAccounting fails the run when the client's counts disagree with
// the server's request and error counters over the same window.
func checkAccounting(before, after serverTotals, sent, failed, transport int) error {
	gotReq, gotErr := after.requests-before.requests, after.errors-before.errors
	wantReq, wantErr := uint64(sent-transport), uint64(failed-transport)
	if gotReq != wantReq || gotErr != wantErr {
		return fmt.Errorf("accounting mismatch: client sent %d (failed %d, %d without a response), server counted %d requests and %d errors",
			sent, failed, transport, gotReq, gotErr)
	}
	return nil
}

// meanCycles averages the recorded per-op simulated cycles (ops that
// failed record none).
func meanCycles(c []uint64) float64 {
	var s, n float64
	for _, v := range c {
		if v > 0 {
			s += float64(v)
			n++
		}
	}
	return ratio(s, n)
}

func runServe(cfg runConfig, hot bool) (runOutput, error) {
	// Untraced: closed-phase windows.  Traced: four phases of a quarter
	// each, one of them open (see traceServe).
	phase := phaseSeconds(cfg, 4)
	in, err := makeServeInputs(cfg, hot, phase)
	if err != nil {
		return runOutput{}, err
	}

	telemetry.SetEnabled(true)
	flightrec.SetEnabled(true)
	var ls *liveServer
	var setupS float64
	cg0 := snapCodegen(backends[0])
	if hot {
		var keys []string // the same on every set-up: keys hash the source
		ls, setupS, err = timedSetup(setupRepeats, func() (*liveServer, error) {
			ls, k, err := hotSetup(in.progs)
			keys = k
			return ls, err
		}, func(ls *liveServer) { ls.close() })
		if err != nil {
			return runOutput{}, err
		}
		for p, prog := range in.progs {
			var bodies [][]byte
			for _, a := range prog.Args {
				bodies = append(bodies, execBody(tenantOf(p), keys[p], "", a))
			}
			in.hotBodies = append(in.hotBodies, bodies)
		}
	} else {
		ls, setupS, err = timedSetup(setupRepeats, func() (*liveServer, error) {
			return compileSetup(in.progs[:compileFill])
		}, func(ls *liveServer) { ls.close() })
		if err != nil {
			return runOutput{}, err
		}
	}
	defer ls.close()

	conns := compileConns
	if hot {
		conns = hotConns
	}
	r := &serveRun{hot: hot, conns: conns, ls: ls, cycles: make([]uint64, cyclePrefix),
		setupCG: snapCodegen(backends[0]).sub(cg0)}
	closedOp := func(ops []serveOp, from int) opFunc {
		return func(i int, l *lane) (outcome, error) {
			return r.do(ops[i], l, uint64(from+i), from+i)
		}
	}
	openOp := func(ops []serveOp, from int) opFunc {
		return func(i int, l *lane) (outcome, error) {
			return r.do(ops[i], l, uint64(1<<32+from+i), -1)
		}
	}
	if cfg.Traced {
		return traceServe(cfg, r, in, phase, closedOp, openOp)
	}

	// Every timing metric is the closed phase's, the median over
	// windows.  The open phase's latencies, timed from each request's
	// due time, sit where host stalls and garbage-collection pauses
	// queue requests, and moved several-fold between runs of one seed;
	// the traced run reports them as loadgen.open.*.
	before := totals(ls.srv)
	wins := int(cfg.Seconds/serveWindow.Seconds() + 0.5)
	if wins < 1 {
		wins = 1
	}
	win := phaseSeconds(cfg, wins)
	var okRates, p50s, p99s []float64
	var attempted, failed, off int
	for k := 0; k < wins; k++ {
		ops := in.closedBatch(off, win)
		closed, err := runClosed(r.conns, win, len(ops), nil, closedOp(ops, off))
		if err != nil {
			return runOutput{}, err
		}
		off += closed.Sent
		attempted += closed.Sent
		failed += closed.Failed
		if len(closed.LatencyUS) < 1000 {
			return runOutput{}, fmt.Errorf("window completed %d requests; it needs 1000 for a p99", len(closed.LatencyUS))
		}
		okRates = append(okRates, float64(closed.OK)/closed.Elapsed.Seconds())
		p50s = append(p50s, percentile(closed.LatencyUS, 50))
		p99s = append(p99s, percentile(closed.LatencyUS, 99))
		fmt.Fprintf(os.Stderr, "window %d: %.0f ok/s p50 %.0fus p99 %.0fus\n", k+1, okRates[k], p50s[k], p99s[k])
	}
	after := totals(ls.srv)
	if err := checkAccounting(before, after, attempted, failed, int(r.transErr.Load())); err != nil {
		return runOutput{}, err
	}
	return runOutput{Attempted: attempted, Failed: failed, Metrics: map[string]float64{
		"ok_per_s":            median(okRates),
		"p50_us":              median(p50s),
		"p99_us":              median(p99s),
		"sim_cycles_per_call": meanCycles(r.cycles),
		"setup_s":             setupS,
		"peak_rss_mb":         peakRSSMB(),
	}}, nil
}

// traceServe is the traced serve run: an untraced closed phase for the
// overhead baseline, a traced closed phase, an open phase, then replays
// of the same kind of requests straight into each layer's public entry
// point.
func traceServe(cfg runConfig, r *serveRun, in *serveInputs, phase time.Duration,
	closedOp, openOp func([]serveOp, int) opFunc) (runOutput, error) {
	ls := r.ls
	tr := newTracer()
	m := map[string]float64{}
	before := totals(ls.srv)

	ops := in.closedBatch(0, phase)
	m0 := mallocs()
	base, err := runClosed(r.conns, phase, len(ops), nil, closedOp(ops, 0))
	if err != nil {
		return runOutput{}, err
	}
	m["allocs_per_op"] = ratio(float64(mallocs()-m0), float64(base.OK))

	ops = in.closedBatch(base.Sent, phase)
	lanes := make([]*lane, r.conns)
	for w := range lanes {
		lanes[w] = tr.lane()
	}
	cg0 := snapCodegen(backends[0])
	c0 := totals(ls.srv)
	depthMax, stopDepth := sampleQueueDepth(ls.srv)
	r.tracing.Store(true)
	traced, err := runClosed(r.conns, phase, len(ops), lanes, closedOp(ops, base.Sent))
	r.tracing.Store(false)
	stopDepth()
	if err != nil {
		return runOutput{}, err
	}
	c1 := totals(ls.srv)
	cg := snapCodegen(backends[0]).sub(cg0)

	ops = in.batch(opsOpen, 0, len(in.due))
	open, err := runOpen(r.conns, in.due, nil, openOp(ops, 0))
	if err != nil {
		return runOutput{}, err
	}
	after := totals(ls.srv)
	attempted := base.Sent + traced.Sent + open.Sent
	failed := base.Failed + traced.Failed + open.Failed
	if err := checkAccounting(before, after, attempted, failed, int(r.transErr.Load())); err != nil {
		return runOutput{}, err
	}

	// Layer replays: the handler without a socket, with observability on
	// and off; the tiny-C front end and compiler on a private machine.
	replay := in.batch(opsReplay, 0, replayOps)
	rl := tr.lane()
	hOn, hOff, hWall, err := replayHandler(ls.srv, replay, rl, r.hot, phase/2)
	if err != nil {
		return runOutput{}, err
	}
	parseUS, compileUS, err := replayTinyC(replay, rl, phase/2)
	if err != nil {
		return runOutput{}, err
	}
	if err := tr.writeChrome(cfg.TraceFile); err != nil {
		return runOutput{}, err
	}
	spans := tr.selfTimes()

	roundtripUS := 0.0
	if lt := spans["http.roundtrip"]; lt != nil {
		roundtripUS = lt.MeanUS
	}
	callUS := mean(r.wallNS) / 1e3
	insns := mean(r.insns)
	handlerUS := mean(hOn)
	m["fail_ratio"] = ratio(float64(failed), float64(attempted))
	m["server.roundtrip_us"] = roundtripUS
	m["server.handler_us"] = handlerUS
	m["server.transport_us"] = roundtripUS - handlerUS
	m["server.handler_self_us"] = handlerUS - mean(hWall)/1e3
	m["observe.overhead_us"] = handlerUS - mean(hOff)
	m["core.call_us"] = callUS
	m["exec.sim_insns_per_call"] = insns
	m["exec.ns_per_sim_insn"] = ratio(callUS*1e3, insns)
	for _, b := range backends {
		zero(m, "exec.sim_insns_per_call."+b, "exec.ns_per_sim_insn."+b, "jit.sim_cycles_per_call."+b, "jit.promote_s."+b)
	}
	m["exec.sim_insns_per_call."+backends[0]] = m["exec.sim_insns_per_call"]
	m["exec.ns_per_sim_insn."+backends[0]] = m["exec.ns_per_sim_insn"]
	m["tinyc.parse_us"] = parseUS
	m["tinyc.compile_us"] = compileUS
	compileNS, compiles := c1.compileNS-c0.compileNS, c1.compiles-c0.compiles
	if r.hot {
		// Nothing compiles while serve-hot is timed, so its compile-path
		// layers come from set-up: the warm set's compiles.
		cg = r.setupCG
		compileNS, compiles = c0.compileNS, c0.compiles
	}
	codegenMetrics(m, cg)
	m["codecache.hit_ratio"] = ratio(float64(c1.hits-c0.hits), float64(c1.hits+c1.misses-c0.hits-c0.misses))
	m["codecache.evictions_per_req"] = ratio(float64(c1.evictions-c0.evictions), float64(traced.Sent))
	m["codecache.compile_us"] = ratio(float64(compileNS)/1e3, float64(compiles))
	m["core.code_bytes_per_unit"] = ratio(float64(c1.unitBytes), float64(c1.units))
	m["batch.queue_depth_max"] = float64(depthMax())
	zero(m, "jit.tier3_call_share", "superblock.formed", "superblock.installed",
		"superblock.deopt", "superblock.side_exits_per_call", "jit.compile_us")
	loadgenMetrics(m, traced, &open)
	m["trace.overhead_ratio"] = ratio(float64(traced.OK)/traced.Elapsed.Seconds(), float64(base.OK)/base.Elapsed.Seconds())
	spanMetrics(m, spans)
	return runOutput{Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// sampleQueueDepth polls the server's summed batch queue depth until the
// returned stop function is called; the first function reports the
// maximum seen.
func sampleQueueDepth(srv *server.Server) (func() int64, func()) {
	var maxDepth atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if d := srv.StatsView().QueueDepth; d > maxDepth.Load() {
					maxDepth.Store(d)
				}
			}
		}
	}()
	return maxDepth.Load, func() { close(done); wg.Wait() }
}

// replayHandler sends replay ops straight into the server's handler (no
// socket), in alternating blocks with telemetry and the flight recorder
// on and off, for up to budget; it leaves both on.  It returns the
// handler time per request with observability on and off (µs) and the
// on-blocks' call wall times (ns).
func replayHandler(srv *server.Server, ops []serveOp, l *lane, hot bool, budget time.Duration) (on, off, wall []float64, err error) {
	defer func() {
		telemetry.SetEnabled(true)
		flightrec.SetEnabled(true)
	}()
	h := srv.Handler()
	const block = 100
	start := time.Now()
	for i := 0; i < len(ops) && time.Since(start) < budget; i++ {
		observe := (i/block)%2 == 0
		telemetry.SetEnabled(observe)
		flightrec.SetEnabled(observe)
		req := httptest.NewRequest(http.MethodPost, "/v1/exec", bytes.NewReader(ops[i].body))
		rec := httptest.NewRecorder()
		sp := l.begin("server.handler", -1, uint64(i))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := float64(time.Since(t0)) / 1e3
		l.end(sp)
		var wr wireResp
		if err := json.Unmarshal(rec.Body.Bytes(), &wr); err != nil || rec.Code != http.StatusOK {
			return nil, nil, nil, fmt.Errorf("handler replay: status %d body %q", rec.Code, rec.Body.Bytes())
		}
		if err := checkExec(wr, ops[i], hot); err != nil {
			return nil, nil, nil, fmt.Errorf("handler replay: %w", err)
		}
		if observe {
			on = append(on, d)
			wall = append(wall, float64(wr.WallNS))
		} else {
			off = append(off, d)
		}
	}
	return on, off, wall, nil
}

// replayTinyC times tinyc.Parse and a whole-program compile on a private
// machine of the server's backend for the replay sources, for up to
// budget.  The machine's arena is released after every program.
func replayTinyC(ops []serveOp, l *lane, budget time.Duration) (parseUS, compileUS float64, err error) {
	jm, err := jit.NewMachineTarget(backends[0], jitMemory)
	if err != nil {
		return 0, 0, err
	}
	m := jm.Core()
	var parse, comp []float64
	start := time.Now()
	for i := 0; i < len(ops) && time.Since(start) < budget; i++ {
		root := l.begin("replay.compile", -1, uint64(i))
		sp := l.begin("tinyc.parse", root, uint64(i))
		t0 := time.Now()
		prog, err := tinyc.Parse(ops[i].src)
		parse = append(parse, float64(time.Since(t0))/1e3)
		l.end(sp)
		if err != nil {
			return 0, 0, err
		}
		mark := m.Mark()
		sp = l.begin("tinyc.compile", root, uint64(i))
		t0 = time.Now()
		err = tinyc.NewCompiler(m).Compile(prog)
		comp = append(comp, float64(time.Since(t0))/1e3)
		l.end(sp)
		m.Release(mark)
		l.end(root)
		if err != nil {
			return 0, 0, err
		}
	}
	return mean(parse), mean(comp), nil
}
