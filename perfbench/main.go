// Command perfbench is the VSS repository benchmark. It runs one named
// workload per invocation against the system's public entry points
// (vss.System, server.Client, router.New, storage.Backend), checks every
// output, and prints its metrics; the last line of standard output is one
// JSON object with the run's verdict and metrics.
//
//	perfbench --workload cache-reads --seed 7 --seconds 20 --trace 0
//
// Workloads (see README.md for sizes and the reasons behind them):
//
//   - cache-reads: one closed-loop client issuing the paper's random reads
//     against an in-process store whose view working set exceeds its
//     per-video budget.
//   - camera-ingest: two overlapping cameras ingested through pipelined
//     writers into a 4-root, 2-replica sharded store while a second
//     goroutine runs predicate queries, then one maintenance pass.
//   - serve-fleet: an open-loop HTTP read generator against a front vssd
//     over a router and three vssd storage nodes on loopback.
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced, and prints the per-layer
// metrics of the traced run together with the tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
	// plant names a fault to plant in the outputs before they are
	// checked ("drop-frame"), to show that the checks catch it.
	plant string
}

// env is what a workload run receives.
type env struct {
	seed    int64
	seconds int
	tr      *tracer // nil in untraced runs
	dir     string  // scratch directory for the run's stores
	plant   string
}

// opTimeout bounds every read, query and request: an operation that
// never returns fails the run instead of hanging it.
const opTimeout = 30 * time.Second

// workload runs one pass and reports it.
type workload func(ctx context.Context, e env) (*report, error)

var workloads = map[string]workload{
	"cache-reads":   runCacheReads,
	"camera-ingest": runCameraIngest,
	"serve-fleet":   runServeFleet,
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	fset.StringVar(&o.workload, "workload", "", "workload: cache-reads, camera-ingest or serve-fleet")
	fset.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	fset.IntVar(&o.seconds, "seconds", 20, "nominal length of the timed phase in seconds")
	trace := fset.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	fset.StringVar(&o.work, "work", "", "directory for scratch stores (required)")
	fset.StringVar(&o.plant, "plant", "", "plant a fault the output checks must catch: drop-frame")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	w, ok := workloads[o.workload]
	if !ok || o.work == "" || o.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload cache-reads|camera-ingest|serve-fleet --seed N --seconds S --trace 0|1 --work DIR")
		return 2
	}
	rep, err := measure(context.Background(), w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := printReport(stdout, o, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		for _, p := range rep.problems {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", o.workload, p)
		}
		return 1
	}
	return 0
}

// measure runs the workload once untraced and, with --trace 1, once more
// traced; the traced pass supplies the per-layer metrics and the
// comparison of the two gives the tracing overhead.
func measure(ctx context.Context, w workload, o options, log io.Writer) (*report, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.work, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pass := func(n int, tr *tracer) (*report, error) {
		e := env{seed: o.seed, seconds: o.seconds, tr: tr, dir: filepath.Join(dir, fmt.Sprint(n)), plant: o.plant}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(e.dir)
		return w(ctx, e)
	}
	plain, err := pass(0, nil)
	if err != nil || !o.trace {
		return plain, err
	}
	traced, err := pass(1, newTracer())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# untraced pass: %s\n", plain.e2eLine())
	traced.layer("trace.overhead_frac", ratio(traced.e2e["op_p50_ms"].Value, plain.e2e["op_p50_ms"].Value)-1, 0)
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.problems = append(plain.problems, traced.problems...)
	return traced, nil
}

// metric is one reported number. Alias is the workload-specific name an
// end-to-end metric goes by on that workload (read_p50_ms on cache-reads
// is op_p50_ms); N is the sample count behind a percentile or mean.
type metric struct {
	Name, Alias, Unit string
	Value             float64
	N                 int
}

// report is one pass's outcome.
type report struct {
	attempted, failed int
	problems          []string // failed output checks
	e2e               map[string]metric
	info              []metric // workload metrics outside the contract list
	layers            map[string]metric
	sum               uint64 // cache-reads: FNV-1a over every output byte, in op order
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// check records a failed output check; it counts as a failed op.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

func (r *report) endToEnd(name, alias string, value float64, n int) {
	r.e2e[name] = metric{Name: name, Alias: alias, Unit: e2eUnit(name), Value: value, N: n}
}

func (r *report) note(name, unit string, value float64, n int) {
	r.info = append(r.info, metric{Name: name, Unit: unit, Value: value, N: n})
}

func (r *report) layer(name string, value float64, n int) {
	r.layers[name] = metric{Name: name, Unit: layerUnit(name), Value: value, N: n}
}

func (r *report) e2eLine() string {
	var parts []string
	for _, m := range e2eMetrics {
		parts = append(parts, fmt.Sprintf("%s=%.4g", m.name, r.e2e[m.name].Value))
	}
	return strings.Join(parts, " ")
}

// e2eMetrics is the end-to-end list every workload reports, in the order
// BENCHMARK.json declares it. Each has a workload-specific meaning,
// printed as the alias.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"frames_per_s", "1/s"},
	{"storage_ratio", "ratio"},
}

func e2eUnit(name string) string {
	for _, m := range e2eMetrics {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown end-to-end metric " + name)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport writes one line per metric (name, value, unit, samples)
// and then the JSON result line.
func printReport(w io.Writer, o options, r *report) error {
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%d trace=%t\n", o.workload, o.seed, o.seconds, o.trace)
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	line := func(kind string, m metric) {
		name := m.Name
		if m.Alias != "" {
			name += " (" + m.Alias + ")"
		}
		fmt.Fprintf(w, "%-10s %-52s %14.6g %-6s n=%d\n", kind, name, m.Value, m.Unit, m.N)
	}
	if o.trace {
		for _, l := range layerMetrics {
			m, ok := r.layers[l.name]
			if !ok {
				m = metric{Name: l.name, Unit: l.unit}
			}
			line("per_layer", m)
			out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
		}
	} else {
		for _, e := range e2eMetrics {
			m, ok := r.e2e[e.name]
			if !ok {
				return errors.New("workload did not report " + e.name)
			}
			line("end_to_end", m)
			out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
		}
	}
	for _, m := range r.info {
		line("info", m)
	}
	if r.sum != 0 {
		fmt.Fprintf(w, "# output_checksum=%016x\n", r.sum)
	}
	if out.Attempted < 1 {
		return errors.New("no operations attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
