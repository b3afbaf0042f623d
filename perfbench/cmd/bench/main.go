// Command bench runs one workload of the repository's benchmark against
// the real cats and catsserve binaries, times them from outside, checks
// every output, and prints one JSON result line.
//
// Usage (normally through perfbench/run.sh, which builds everything):
//
//	bench -workload scan-crawl|serve-fresh|serve-retrain -seed N
//	      -seconds S -trace 0|1 -bin DIR -work DIR [-tracer PATH]
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs
// the traced variant and prints the per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/perfbench/internal/inputs"
	"repro/perfbench/internal/span"
)

// setups is how many times each run sets up from nothing; setup_s is
// their median.
const setups = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	work     string
	tracer   string
	rec      *span.Recorder // client-side spans of a traced run
}

func (o *options) path(name string) string { return filepath.Join(o.work, name) }

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and the details that go to the run's
// details file (input make-up, quality, diagnostics).
type report struct {
	attempted int
	failed    int
	metrics   map[string]metric
	details   map[string]any
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, details: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "scan-crawl, serve-fresh or serve-retrain")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory holding the built cats and catsserve")
	flag.StringVar(&o.work, "work", "", "scratch directory for inputs and outputs")
	flag.StringVar(&o.tracer, "tracer", "", "the built trace command (with -trace 1)")
	flag.Parse()
	o.trace = trace == 1
	if o.trace {
		if o.tracer == "" {
			fatal(fmt.Errorf("-trace 1 needs -tracer"))
		}
		o.rec = span.NewRecorder()
	}
	if o.bin == "" || o.work == "" {
		fatal(fmt.Errorf("-bin and -work are required"))
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatal(err)
	}
	var (
		rep *report
		chk *checker
		err error
	)
	switch o.workload {
	case "scan-crawl":
		rep, chk, err = scanCrawl(&o)
	case "serve-fresh":
		rep, chk, err = serveFresh(&o)
	case "serve-retrain":
		rep, chk, err = serveRetrain(&o)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fatal(err)
	}
	rep.details["filtered_no_signal"] = len(chk.filteredSignal)
	rep.details["check_failures"] = chk.failures
	rep.details["check_notes"] = chk.notes
	for _, n := range chk.notes {
		fmt.Fprintln(os.Stderr, "bench: check failed:", n)
	}
	if b, err := json.MarshalIndent(rep.details, "", "  "); err == nil {
		os.WriteFile(o.path("details.json"), append(b, '\n'), 0o644)
	}
	out := result{Correct: chk.failures == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// setupResult is the outcome of setting up several times from nothing.
type setupResult struct {
	snapshot string
	setup    []float64 // seconds net of host steal, whole setup
	train    []float64 // seconds net of host steal, cats -train alone
	boot     []float64 // seconds, catsserve boot to ready
	raw      []float64 // seconds, whole setup as the wall clock saw it
	srv      *server   // the last booted server (serve workloads)
}

// setUp trains the model from the seeded labeled set through cats
// -train, writing its columnar snapshot, and on serve workloads boots
// catsserve on it until /readyz answers. It does so n times from
// nothing, checks the snapshots are byte-identical, and keeps the last
// server running.
func setUp(o *options, n int, serveArgs []string) (_ *setupResult, err error) {
	empty := o.path("empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		return nil, err
	}
	res := &setupResult{}
	defer func() {
		if err != nil && res.srv != nil {
			res.srv.stop()
		}
	}()
	var first []byte
	for i := 0; i < n; i++ {
		snap := o.path(fmt.Sprintf("model%d.catc", i))
		os.Remove(snap)
		h0, t0 := readHost(), time.Now()
		u, err := run(o.path("train.log"), filepath.Join(o.bin, "cats"),
			"-train", o.path("train.jsonl"), "-detect", empty, "-out", o.path("train.tsv"),
			"-corpus", strconv.Itoa(inputs.Corpus),
			"-save-model", snap, "-model-format", "columnar")
		if err != nil {
			return nil, err
		}
		train := time.Since(t0)
		boot := time.Duration(0)
		netTrain := u.net
		if serveArgs != nil {
			if res.srv != nil {
				if _, err := res.srv.stop(); err != nil {
					return nil, err
				}
			}
			t1 := time.Now()
			res.srv, err = startServer(filepath.Join(o.bin, "catsserve"), o.path("serve.log"),
				append([]string{"-model", snap}, serveArgs...)...)
			if err != nil {
				return nil, err
			}
			boot = time.Since(t1)
		}
		res.setup = append(res.setup, netOfSteal(train+boot, h0, readHost()).Seconds())
		res.raw = append(res.raw, (train + boot).Seconds())
		res.train = append(res.train, netTrain.Seconds())
		res.boot = append(res.boot, boot.Seconds())
		b, err := os.ReadFile(snap)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			return nil, fmt.Errorf("setup %d wrote a snapshot that differs from setup 0's", i)
		}
		res.snapshot = snap
	}
	return res, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the highest of p99.9, p99 and p90 that has at least
// ten samples beyond it, with its name; ok is false when none has.
func tailQuantile(xs []float64) (name string, v float64, ok bool) {
	for _, c := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(xs))*(1-c.q) >= 10 {
			return c.name, quantile(xs, c.q), true
		}
	}
	return "", 0, false
}
