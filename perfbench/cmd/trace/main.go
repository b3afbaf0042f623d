// Command trace is the in-process half of the benchmark's traced run.
// It calls each layer's public function on a workload's own inputs,
// recording a span around every call, and derives per-layer metrics
// from the spans' self times. It writes the spans to spans.jsonl in the
// work directory and prints the metrics as one JSON object.
//
// Usage (run by the bench command with -trace 1):
//
//	trace -workload W -seed N -work DIR -snapshot MODEL.catc
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dispatch"
	"repro/internal/ecom"
	"repro/internal/lexicon"
	"repro/internal/ml/gbt"
	"repro/internal/registry"
	"repro/internal/sentiment"
	"repro/internal/service"
	"repro/internal/synth"
	"repro/internal/textgen"
	"repro/internal/tokenize"
	"repro/internal/trainer"
	"repro/internal/word2vec"
	"repro/perfbench/internal/inputs"
	"repro/perfbench/internal/span"
)

// hotRepeats is how many times serve-retrain's hot pool is repeated to
// make a measurable item stream, as the workload repeats it.
const hotRepeats = 20

// Seeds and corpus sizes cats -train uses (cmd/cats).
const (
	polarSize  = 4000
	polarSeed  = 17
	corpusSeed = 18
)

type tracer struct {
	rec     *span.Recorder
	metrics map[string]float64
}

func main() {
	var workload, work, snapshot string
	var seed int64
	flag.StringVar(&workload, "workload", "", "workload whose inputs to trace")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.StringVar(&work, "work", "", "the run's work directory")
	flag.StringVar(&snapshot, "snapshot", "", "the model snapshot cats -train wrote")
	flag.Parse()
	t := &tracer{rec: span.NewRecorder(), metrics: map[string]float64{}}
	if err := t.run(workload, seed, work, snapshot); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	if err := t.rec.WriteFile(filepath.Join(work, "spans.jsonl")); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(t.metrics)
	fmt.Println(string(b))
}

func (t *tracer) run(workload string, seed int64, work, snapshot string) error {
	var src []byte
	var err error
	switch workload {
	case "scan-crawl":
		src, err = os.ReadFile(filepath.Join(work, "crawl.jsonl"))
	case "serve-fresh":
		src, err = os.ReadFile(filepath.Join(work, "fresh.jsonl"))
	case "serve-retrain":
		var pool []byte
		pool, err = os.ReadFile(filepath.Join(work, "pool.jsonl"))
		src = bytes.Repeat(pool, hotRepeats)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	root := t.rec.Start("trace."+workload, 0, 0)
	defer root.End(0)
	if err := t.setupLayers(root.ID(), snapshot); err != nil {
		return err
	}
	sys, err := cats.LoadFile(snapshot)
	if err != nil {
		return err
	}
	items, err := t.decode(root.ID(), src)
	if err != nil {
		return err
	}
	t.analysis(root.ID(), sys, items)
	if err := t.service(root.ID(), sys, items); err != nil {
		return err
	}
	window, err := feedbackWindow(work, seed)
	if err != nil {
		return err
	}
	return t.registryAndTrainer(root.ID(), sys, window)
}

// setupLayers times what cats -train runs before detection: word2vec,
// lexicon expansion, sentiment training and the GBT fit, plus the
// snapshot codec, on the inputs cats -train uses.
func (t *tracer) setupLayers(parent int, snapshot string) error {
	bank := textgen.NewBank()
	seg := tokenize.NewSegmenter(bank.Vocabulary())
	corpus := synth.TrainingCorpus(inputs.Corpus, corpusSeed)
	docs := make([][]string, len(corpus))
	for i, c := range corpus {
		docs[i] = seg.Words(c)
	}
	sp := t.rec.Start("word2vec.train", parent, 0)
	model, err := word2vec.Train(docs, word2vec.Config{})
	sp.End(1)
	if err != nil {
		return err
	}
	t.metrics["word2vec.train_s"] = t.total("word2vec.train").PerUnit(time.Second)

	for _, seeds := range [][]string{core.DefaultPositiveSeeds, core.DefaultNegativeSeeds} {
		sp := t.rec.Start("lexicon.expand", parent, 0)
		_, err := lexicon.Expand(model, seeds, lexicon.Config{})
		sp.End(1)
		if err != nil {
			return err
		}
	}
	// Both expansions make one setup's lexicon work.
	t.metrics["lexicon.expand_ms"] = 2 * t.total("lexicon.expand").PerUnit(time.Millisecond)

	texts, labels := synth.PolarCorpus(polarSize, polarSeed)
	polar := make([][]string, len(texts))
	for i, s := range texts {
		polar[i] = seg.Words(s)
	}
	sp = t.rec.Start("sentiment.train", parent, 0)
	_, err = sentiment.Train(polar, labels)
	sp.End(1)
	if err != nil {
		return err
	}
	t.metrics["sentiment.train_ms"] = t.total("sentiment.train").PerUnit(time.Millisecond)

	const codecRounds = 5
	raw, err := os.ReadFile(snapshot)
	if err != nil {
		return err
	}
	var snap *core.DetectorSnapshot
	var det *core.Detector
	for i := 0; i < codecRounds; i++ {
		sp := t.rec.Start("core.snapshot_decode", parent, 0)
		snap, err = core.ReadSnapshot(bytes.NewReader(raw))
		if err == nil {
			det, _, err = core.DetectorFromSnapshot(snap)
		}
		sp.End(1)
		if err != nil {
			return err
		}
		sp = t.rec.Start("core.snapshot_encode", parent, 0)
		err = core.WriteSnapshotFormat(io.Discard, snap, core.FormatColumnar)
		sp.End(1)
		if err != nil {
			return err
		}
	}
	t.metrics["core.snapshot_decode_ms"] = t.total("core.snapshot_decode").PerUnit(time.Millisecond)
	t.metrics["core.snapshot_encode_ms"] = t.total("core.snapshot_encode").PerUnit(time.Millisecond)

	// The GBT fit on the training set's features, as cats -train fits it.
	train, err := dataset.ReadAll(filepath.Join(filepath.Dir(snapshot), "train.jsonl"))
	if err != nil {
		return err
	}
	ds := det.BuildMLDataset(train.Items, 0)
	clf, err := core.NewClassifier(core.KindGBT)
	if err != nil {
		return err
	}
	sp = t.rec.Start("gbt.fit", parent, 0)
	err = clf.Fit(ds)
	sp.End(1)
	if err != nil {
		return err
	}
	t.metrics["gbt.fit_ms"] = t.total("gbt.fit").PerUnit(time.Millisecond)
	return nil
}

func (t *tracer) total(name string) span.Total { return t.rec.Totals()[name] }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// decode reads the workload's JSONL through the dataset reader, one
// span per item, then counts its allocations in an untraced pass.
func (t *tracer) decode(parent int, src []byte) ([]ecom.Item, error) {
	var items []ecom.Item
	r := dataset.NewReader(bytes.NewReader(src))
	for {
		sp := t.rec.Start("dataset.jsonl_decode", parent, int64(len(items)))
		it, err := r.Next()
		if err == io.EOF {
			break
		}
		sp.End(1)
		if err != nil {
			return nil, err
		}
		items = append(items, *it)
	}
	m0 := mallocs()
	r = dataset.NewReader(bytes.NewReader(src))
	for {
		if _, err := r.Next(); err != nil {
			break
		}
	}
	t.metrics["dataset.jsonl_decode_us_per_item"] = t.total("dataset.jsonl_decode").PerUnit(time.Microsecond)
	t.metrics["dataset.jsonl_decode_allocs_per_item"] = float64(mallocs()-m0) / float64(len(items))
	return items, nil
}

// analysis calls the analysis layers item by item: segmentation and
// sentiment scoring of every comment, the fused per-item analysis, and
// GBT scoring of the items that pass the rule filter. It then runs the
// batch detector over the same items for the core counts.
func (t *tracer) analysis(parent int, sys *cats.System, items []ecom.Item) {
	det := sys.Detector()
	ext := det.Extractor()
	seg := ext.Segmenter()
	sent := sys.Analyzer().Sentiment
	var toks []tokenize.Token
	var words [][]string
	var analyzed []ecom.Item
	var vecs [][]float64
	comments := 0
	for i := range items {
		it := &items[i]
		if it.SalesVolume < inputs.SalesCutoff {
			continue
		}
		analyzed = append(analyzed, *it)
		comments += len(it.Comments)
		sp := t.rec.Start("tokenize.segment", parent, int64(i))
		for _, c := range it.Comments {
			toks = seg.AppendTokensAll(toks[:0], c.Content)
		}
		sp.End(int64(len(it.Comments)))
		words = words[:0]
		for _, c := range it.Comments {
			words = append(words, seg.Words(c.Content))
		}
		sp = t.rec.Start("sentiment.score", parent, int64(i))
		for _, w := range words {
			sent.Score(w)
		}
		sp.End(int64(len(it.Comments)))
		sp = t.rec.Start("features.analyze", parent, int64(i))
		v, pos := ext.VectorSignal(it)
		sp.End(1)
		if pos {
			vecs = append(vecs, v)
		}
	}
	tot := t.rec.Totals()
	seg1, sen1, ana1 := tot["tokenize.segment"], tot["sentiment.score"], tot["features.analyze"]
	t.metrics["tokenize.segment_ns_per_comment"] = seg1.PerUnit(time.Nanosecond)
	t.metrics["sentiment.score_ns_per_comment"] = sen1.PerUnit(time.Nanosecond)
	t.metrics["features.analyze_us_per_item"] = ana1.PerUnit(time.Microsecond)
	t.metrics["features.rest_ns_per_comment"] = float64(ana1.Self-seg1.Self-sen1.Self) / float64(comments)

	m0 := mallocs()
	for i := range analyzed {
		ext.VectorSignal(&analyzed[i])
	}
	t.metrics["features.allocs_per_item"] = float64(mallocs()-m0) / float64(len(analyzed))

	g := det.Classifier().(*gbt.Classifier)
	out := make([]float64, 64)
	for lo := 0; lo < len(vecs); lo += 64 {
		hi := min(lo+64, len(vecs))
		sp := t.rec.Start("gbt.predict", parent, int64(lo))
		g.PredictProbaBatch(vecs[lo:hi], out[:hi-lo])
		sp.End(int64(hi - lo))
	}
	t.metrics["gbt.predict_ns_per_item"] = t.total("gbt.predict").PerUnit(time.Nanosecond)

	// The batch detector over every item: CPU per item, segmentations
	// per comment of the items at or above the cutoff, and the share of
	// those the classifier scores.
	calls0 := seg.Segmentations()
	cpu0 := cpuNow()
	sp := t.rec.Start("core.detect", parent, 0)
	dets, _ := sys.Detect(items)
	sp.End(int64(len(items)))
	t.metrics["core.detect_cpu_us_per_item"] = float64(cpuNow()-cpu0) / float64(time.Microsecond) / float64(len(items))
	t.metrics["tokenize.segmentations_per_comment"] = float64(seg.Segmentations()-calls0) / float64(comments)
	scored := 0
	for _, d := range dets {
		if !d.Filtered {
			scored++
		}
	}
	t.metrics["core.scored_per_analyzed"] = float64(scored) / float64(len(analyzed))
	// Shares of all items analysed and scored, for the residual.
	t.metrics["_analyzed_share"] = float64(len(analyzed)) / float64(len(items))
	t.metrics["_scored_share"] = float64(scored) / float64(len(items))
}

// service encodes the items as 8-item detect bodies and times the
// service's request decode and response encode on them.
func (t *tracer) service(parent int, sys *cats.System, items []ecom.Item) error {
	var bodies [][]byte
	for lo := 0; lo+inputs.RequestItems <= len(items); lo += inputs.RequestItems {
		b, err := json.Marshal(service.DetectRequest{Items: items[lo : lo+inputs.RequestItems]})
		if err != nil {
			return err
		}
		bodies = append(bodies, b)
	}
	for i, b := range bodies {
		var req service.DetectRequest
		sp := t.rec.Start("service.request_decode", parent, int64(i))
		err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
		sp.End(int64(len(req.Items)))
		if err != nil {
			return err
		}
		dets, err := sys.Detect(req.Items)
		if err != nil {
			return err
		}
		resp := service.DetectResponse{Detections: make([]service.DetectionDTO, len(dets)), Tenant: "default"}
		for j, d := range dets {
			resp.Detections[j] = service.DetectionDTO{ItemID: d.ItemID, Score: d.Score, IsFraud: d.IsFraud, Filtered: d.Filtered}
		}
		sp = t.rec.Start("service.response_encode", parent, int64(i))
		err = json.NewEncoder(io.Discard).Encode(resp)
		sp.End(int64(len(dets)))
		if err != nil {
			return err
		}
	}
	t.metrics["service.request_decode_us_per_item"] = t.total("service.request_decode").PerUnit(time.Microsecond)
	t.metrics["service.response_encode_us_per_item"] = t.total("service.response_encode").PerUnit(time.Microsecond)
	return nil
}

// feedbackWindow is the labeled window serve-retrain's trainer retrains
// on, regenerated from the seed when the workload did not write it.
func feedbackWindow(work string, seed int64) ([]ecom.Item, error) {
	path := filepath.Join(work, "feedback.jsonl")
	var items []ecom.Item
	if _, err := os.Stat(path); err == nil {
		ds, err := dataset.ReadAll(path)
		if err != nil {
			return nil, err
		}
		items = ds.Items
	} else if items, err = inputs.Feedback(path, seed); err != nil {
		return nil, err
	}
	return items[:inputs.Window], nil
}

// registryAndTrainer installs the model into a batching registry as
// catsserve does, then runs one forced champion/challenger cycle on a
// full feedback window.
func (t *tracer) registryAndTrainer(parent int, sys *cats.System, window []ecom.Item) error {
	ctx := context.Background()
	reg := registry.New(registry.Options{Batching: &dispatch.Options{
		MaxBatch: 256, MaxWait: 2 * time.Millisecond, MaxQueue: 4096, RetryAfter: time.Second,
	}})
	defer reg.Close()
	const installs = 3
	for i := 0; i < installs; i++ {
		sp := t.rec.Start("registry.install", parent, int64(i))
		_, err := reg.Install(ctx, "default", fmt.Sprintf("v%d", i), sys.Detector(), sys.Analyzer())
		sp.End(1)
		if err != nil {
			return err
		}
	}
	t.metrics["registry.install_ms"] = t.total("registry.install").PerUnit(time.Millisecond)

	seg := sys.Detector().Extractor().Segmenter()
	comments := 0
	for i := range window {
		comments += len(window[i].Comments)
	}
	sp := t.rec.Start("trainer.extract", parent, 0)
	sys.Detector().BuildMLDataset(window, 0)
	sp.End(1)
	t.metrics["trainer.extract_s"] = t.total("trainer.extract").PerUnit(time.Second)

	tr := trainer.New(reg, trainer.NewFakeClock(time.Unix(0, 0)), trainer.Config{MinF1Gain: -1})
	defer tr.Close()
	fbs := make([]trainer.Feedback, len(window))
	for i := range window {
		fbs[i] = trainer.Feedback{Item: window[i], Fraud: window[i].Label.IsFraud()}
	}
	if _, err := tr.Feed("default", fbs); err != nil {
		return err
	}
	calls0 := seg.Segmentations()
	sp = t.rec.Start("trainer.cycle", parent, 0)
	d, err := tr.RunCycle(ctx, "default")
	sp.End(1)
	if err != nil {
		return err
	}
	if d.Outcome != trainer.OutcomePromoted {
		return fmt.Errorf("forced cycle ended %s: %s", d.Outcome, d.Reason)
	}
	t.metrics["trainer.cycle_s"] = t.total("trainer.cycle").PerUnit(time.Second)
	t.metrics["trainer.analyses_per_window_item"] = float64(seg.Segmentations()-calls0) / float64(comments)
	return nil
}
