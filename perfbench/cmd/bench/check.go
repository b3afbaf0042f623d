package main

import (
	"fmt"
	"strings"

	"repro"
	"repro/perfbench/internal/inputs"
)

// Quality floors against the generator's ground truth. The paper's
// Table VI band is P 0.91, R 0.90, F 0.90; a model trained in seconds
// on ~3,400 items and judged on ~75-450 fraud items among 1.3% fraud
// lands at P 0.74-0.88, R 0.85-0.90 across seeds. The floors sit far
// enough below that for no seed of working code to trip them, and far
// above what a broken model gives (flagging everything: P 0.013;
// flagging nothing: R 0).
const (
	floorPrecision = 0.6
	floorRecall    = 0.7
	floorF1        = 0.7
)

// verdict is one answered item as the program reported it.
type verdict struct {
	id        string
	score     float64
	scoreText string // as printed, when the program prints text
	fraud     bool
	filtered  bool
	gen       uint64 // model generation, when served
}

// checker checks verdicts against the generator's ground truth, the
// stage-one rule, and the library's single-item entry point.
type checker struct {
	truth    map[string]inputs.Truth
	samples  map[string]*cats.Item
	sys      *cats.System // the snapshot under test, loaded in-process
	refGen   uint64       // generation the snapshot serves as; 0 for scans
	expected map[string]cats.Detection
	failures int
	notes    []string
	// scanQuality is the first scan's quality, for the details file.
	scanQuality map[string]float64
	// filteredSignal counts distinct answered items at or above the
	// sales cutoff that the rule filter dropped for having no positive
	// signal.
	filteredSignal map[string]bool
}

func newChecker(truth []inputs.Truth, samples []cats.Item, snapshot string) (*checker, error) {
	sys, err := cats.LoadFile(snapshot)
	if err != nil {
		return nil, err
	}
	c := &checker{
		truth:          make(map[string]inputs.Truth, len(truth)),
		samples:        make(map[string]*cats.Item, len(samples)),
		sys:            sys,
		expected:       map[string]cats.Detection{},
		filteredSignal: map[string]bool{},
	}
	for _, t := range truth {
		c.truth[t.ID] = t
	}
	for i := range samples {
		c.samples[samples[i].ID] = &samples[i]
	}
	return c, nil
}

func (c *checker) fail(format string, args ...any) {
	c.failures++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// item checks one verdict: the item is known, the stage-one rule holds,
// and a sampled item scores as cats.System.DetectItem scores it.
func (c *checker) item(v verdict) {
	t, ok := c.truth[v.id]
	if !ok {
		c.fail("answer for unknown item %q", v.id)
		return
	}
	if t.Sales < inputs.SalesCutoff && !(v.filtered && v.score == 0) {
		c.fail("%s: sales %d below cutoff but filtered=%v score=%v", v.id, t.Sales, v.filtered, v.score)
	}
	if v.filtered && t.Sales >= inputs.SalesCutoff {
		c.filteredSignal[v.id] = true
	}
	if v.filtered && v.fraud {
		c.fail("%s: filtered item reported", v.id)
	}
	// A printed score of exactly the threshold may have been rounded up
	// to it, so the rule is only decidable off that value.
	if v.scoreText != inputs.FormatScore(inputs.Threshold) && v.fraud != (v.score >= inputs.Threshold) {
		c.fail("%s: reported=%v with score %v (threshold %v)", v.id, v.fraud, v.score, inputs.Threshold)
	}
	it, sampled := c.samples[v.id]
	if !sampled || v.gen != c.refGen {
		return
	}
	want, ok := c.expected[v.id]
	if !ok {
		d, err := c.sys.DetectItem(it)
		if err != nil {
			c.fail("%s: DetectItem: %v", v.id, err)
			return
		}
		c.expected[v.id] = d
		want = d
	}
	same := want.Score == v.score
	if v.scoreText != "" {
		same = inputs.FormatScore(want.Score) == v.scoreText
	}
	if !same || want.IsFraud != v.fraud || want.Filtered != v.filtered {
		c.fail("%s: answered score=%v fraud=%v filtered=%v, DetectItem gives %v/%v/%v",
			v.id, v.score, v.fraud, v.filtered, want.Score, want.IsFraud, want.Filtered)
	}
}

// quality checks precision, recall and F1 against ground truth, and
// returns them. byID holds one verdict per item id, or per "id@gen"
// where one item is answered by several model generations.
func (c *checker) quality(what string, byID map[string]bool) (p, r, f float64) {
	var tp, fp, fn int
	for key, reported := range byID {
		id, _, _ := strings.Cut(key, "@")
		fraud := c.truth[id].Fraud
		switch {
		case reported && fraud:
			tp++
		case reported:
			fp++
		case fraud:
			fn++
		}
	}
	if tp > 0 {
		p = float64(tp) / float64(tp+fp)
		r = float64(tp) / float64(tp+fn)
		f = 2 * p * r / (p + r)
	}
	if p < floorPrecision || r < floorRecall || f < floorF1 {
		c.fail("%s: P=%.3f R=%.3f F=%.3f below floors P %.2f R %.2f F %.2f (tp %d fp %d fn %d)",
			what, p, r, f, floorPrecision, floorRecall, floorF1, tp, fp, fn)
	}
	return p, r, f
}
