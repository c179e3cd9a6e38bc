// Command bench is the repo benchmark: four workloads over a real adapiped
// and the live 1F1B executor, end-to-end metrics measured with tracing off,
// and a separate traced run that reduces spans recorded around each layer's
// public functions to a per-layer ledger. BENCHMARK.json at the repo root
// names the workloads and metrics; README.md in this directory explains them.
//
//	go run ./bench -seed 1                          all workloads, both runs, bench/out/result.json
//	go run ./bench -workload plan_hot -trace 0      one run, one JSON line (the driver's contract)
//	go run ./bench -compare a.json b.json           do two result files agree within the bounds?
//
// Run it from the repo root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"adapipe/internal/request"
)

// metricDef is one metric of BENCHMARK.json, the single list of metric names,
// units, directions and bounds: the harness reads it instead of keeping a
// copy.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("%w (run the benchmark from the repo root)", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// measured is one reported value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project picks the listed metrics out of values: the contract wants every
// metric on every workload. A value that is not a finite number is an error,
// and so is one BENCHMARK.json does not list (a misspelt name would otherwise
// vanish). A listed metric the run did not produce is an error too, unless
// absentIsZero — the per-layer ledger reports 0 for a layer a workload does
// not reach.
func project(defs []metricDef, values map[string]float64, absentIsZero bool) (map[string]measured, error) {
	out := map[string]measured{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !absentIsZero {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", d.Name, v)
		}
		out[d.Name] = measured{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// extraUnits are the units of the workload-specific end-to-end numbers.
var extraUnits = map[string]string{
	"failed_share": "ratio", "op_samples": "count", "adapipe_speedup_x": "x", "simulate_p50_ms": "ms",
	"sweep_point_p50_ms": "ms", "sweep_samples": "count", "train_tokens_per_s": "1/s",
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Errors    []string            `json:"errors,omitempty"`
	EndToEnd  map[string]measured `json:"end_to_end,omitempty"`
	Extra     map[string]measured `json:"extra,omitempty"`
	PerLayer  map[string]measured `json:"per_layer,omitempty"`
	TraceFile string              `json:"trace_file,omitempty"`
}

// environment records where a result came from.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       uint64  `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	BuildS     float64 `json:"build_s"`
	InProcess  bool    `json:"in_process"`
}

type resultFile struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// harness is the state shared by the runs of one invocation.
type harness struct {
	spec    *benchmarkSpec
	seed    uint64
	seconds float64
	// short selects the smoke pass: one set-up per run, a small plan_hot
	// working set and three plan-quality shapes.
	short   bool
	launch  launcher
	scratch string
	// outDir receives the Chrome trace files.
	outDir string
	golden goldenFile
	// observed collects what the first operations of each lane returned, for
	// -update-golden.
	observed goldenFile
}

// setupReps is how often a run sets its workload up; setup_s is the median.
func (h *harness) setupReps() int {
	if h.short {
		return 1
	}
	return 3
}

// hotSet is the plan_hot working set of this run.
func (h *harness) hotSet() *hotSet {
	if h.short {
		return newHotSet(h.seed, shortHotRequests)
	}
	return newHotSet(h.seed, hotRequests)
}

// qualityRequests are the fixed shapes of the plan-quality metric; the smoke
// pass simulates only the first three.
func (h *harness) qualityRequests() []request.PlanRequest {
	if h.short {
		return qualityRequests()[:3]
	}
	return qualityRequests()
}

// endToEnd runs one workload with tracing off.
func (h *harness) endToEnd(ctx context.Context, workload string) (*workloadResult, error) {
	res := &workloadResult{}
	var values, extra map[string]float64
	if workload == wlTrain1F1B {
		run, setupS, rss, cpuS, err := h.trainEndToEnd(ctx)
		if err != nil {
			return nil, err
		}
		steps := float64(len(run.stepMS))
		values = map[string]float64{
			"setup_s":          median(setupS),
			"throughput_ops_s": ratio(steps, run.wall.Seconds()),
			"op_p50_ms":        quantile(run.stepMS, 0.5),
			"op_p95_ms":        quantile(run.stepMS, 0.95),
			"peak_rss_mb":      rss,
			"cpu_ms_per_op":    ratio(cpuS*1000, steps),
		}
		extra = map[string]float64{
			"failed_share":       ratio(float64(run.failed), float64(run.attempted)),
			"op_samples":         steps,
			"train_tokens_per_s": ratio(steps*float64(trainMicros*trainNet.Seq), run.wall.Seconds()),
		}
		res.Attempted, res.Failed, res.Errors = run.attempted, run.failed, run.errs
	} else {
		run, err := h.runDaemon(ctx, workload, time.Duration(h.seconds*float64(time.Second)), h.setupReps(), h.golden[workload])
		if err != nil {
			return nil, err
		}
		values, extra = run.endToEnd(workload), run.extras(workload)
		res.Attempted, res.Failed, res.Errors = run.load.attempted, run.load.failed, run.load.errs
		h.observed[workload] = run.load.observed
	}
	var err error
	if res.EndToEnd, err = project(h.spec.EndToEnd, values, false); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	res.Extra = map[string]measured{}
	for name, v := range extra {
		res.Extra[name] = measured{Value: v, Unit: extraUnits[name]}
	}
	return res, nil
}

// traced runs one workload's traced pass.
func (h *harness) traced(ctx context.Context, workload string) (*workloadResult, error) {
	var tr *traceResult
	var err error
	if workload == wlTrain1F1B {
		tr, err = h.traceTrain(ctx)
	} else {
		tr, err = h.traceDaemon(ctx, workload)
	}
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Attempted: tr.attempted, Failed: tr.failed, Errors: tr.errs, TraceFile: tr.traceFile}
	// A layer the workload does not reach reports 0, which is what "must not
	// move" is checked against.
	if res.PerLayer, err = project(h.spec.PerLayer, tr.ledger, true); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return res, nil
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload     = flag.String("workload", "", "run only this workload and print one JSON line (the driver's contract)")
		seed         = flag.Uint64("seed", 1, "workload seed; the program sees only the generated inputs")
		seconds      = flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer ledger")
		short        = flag.Bool("short", false, "smoke pass: 2 s per run against an in-process serve.Server instead of the binary")
		compare      = flag.Bool("compare", false, "compare two result files (arguments) against the bounds of BENCHMARK.json")
		updateGolden = flag.Bool("update-golden", false, "rewrite bench/golden/seed1.json from this run (needs -seed 1)")
		outPath      = flag.String("out", filepath.Join("bench", "out", "result.json"), "result file of a full run")
	)
	flag.Parse()
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two result files"))
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
		if *short {
			*seconds = 2
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer killAllDaemons()
	scratch, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)

	h := &harness{
		spec: spec, seed: *seed, seconds: *seconds, short: *short, scratch: scratch,
		outDir: filepath.Join("bench", "out"), launch: inProcessLauncher, observed: goldenFile{},
	}
	env := environment{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: clientCount(), Seed: *seed, RunSeconds: *seconds, InProcess: *short,
	}
	needDaemon := *workload != wlTrain1F1B
	if !*short && needDaemon {
		bin, buildS, err := buildDaemon()
		if err != nil {
			return fail(err)
		}
		env.BuildS = buildS
		h.launch = daemonLauncher(bin, scratch)
		fmt.Fprintf(os.Stderr, "bench: built adapiped in %.2fs (build_s, outside every metric)\n", buildS)
	}
	goldenPath := filepath.Join("bench", "golden", "seed1.json")
	if *seed == 1 && !*updateGolden {
		if data, err := os.ReadFile(goldenPath); err == nil {
			if err := json.Unmarshal(data, &h.golden); err != nil {
				return fail(fmt.Errorf("%s: %w", goldenPath, err))
			}
		}
	}

	if *workload != "" {
		return h.contractRun(ctx, *workload, *trace)
	}

	out := resultFile{Env: env, Workloads: map[string]*workloadResult{}}
	failed := 0
	for _, w := range spec.Workloads {
		fmt.Fprintf(os.Stderr, "bench: %s: end-to-end run (%.0fs)\n", w.Name, *seconds)
		e2e, err := h.endToEnd(ctx, w.Name)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: traced run\n", w.Name)
		tr, err := h.traced(ctx, w.Name)
		if err != nil {
			return fail(err)
		}
		e2e.PerLayer, e2e.TraceFile = tr.PerLayer, tr.TraceFile
		e2e.Attempted += tr.Attempted
		e2e.Failed += tr.Failed
		e2e.Errors = append(e2e.Errors, tr.Errors...)
		out.Workloads[w.Name] = e2e
		failed += e2e.Failed
		printWorkload(w.Name, e2e, spec)
	}
	if *updateGolden {
		if *seed != 1 {
			return fail(fmt.Errorf("-update-golden needs -seed 1"))
		}
		if err := writeJSON(goldenPath, h.observed); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", goldenPath)
	}
	if err := writeJSON(*outPath, out); err != nil {
		return fail(err)
	}
	fmt.Printf("result file: %s\n", *outPath)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d operations failed their output checks\n", failed)
		return 1
	}
	return 0
}

// contractRun is one driver run: a single workload, end-to-end or traced, and
// one JSON object as the last line of standard output.
func (h *harness) contractRun(ctx context.Context, workload string, trace int) int {
	known := false
	for _, w := range h.spec.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fail(fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", ")))
	}
	var res *workloadResult
	var err error
	metrics := map[string]measured{}
	if trace == 0 {
		if res, err = h.endToEnd(ctx, workload); err == nil {
			metrics = res.EndToEnd
		}
	} else {
		if res, err = h.traced(ctx, workload); err == nil {
			metrics = res.PerLayer
		}
	}
	if err != nil {
		return fail(err)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "bench: failed check: %s\n", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(name string, r *workloadResult, spec *benchmarkSpec) {
	fmt.Printf("\n== %s: %d attempted, %d failed ==\n", name, r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("  failed check: %s\n", e)
	}
	for _, d := range spec.EndToEnd {
		m := r.EndToEnd[d.Name]
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	extra := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("  %-34s %14.4f %s\n", k, r.Extra[k].Value, r.Extra[k].Unit)
	}
	for _, d := range spec.PerLayer {
		m := r.PerLayer[d.Name]
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	if r.TraceFile != "" {
		fmt.Printf("  trace: %s\n", r.TraceFile)
	}
}
