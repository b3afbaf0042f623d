// Package inputs generates every input of the benchmark from its seed:
// the labeled training set, the D1-shaped crawls, the hot pool and the
// labeled feedback. The same seed always yields the same bytes. Ground
// truth stays here; the files handed to the program carry no labels
// except where the program is meant to read them (training set and
// feedback).
package inputs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"repro"
	"repro/internal/synth"
)

// Scale and shape of every workload's inputs. The README records the
// make-up they produce.
const (
	// TrainScale sizes the labeled training set (D0 shape, ~3,400 items).
	TrainScale = 0.1
	// Corpus is the generated word2vec corpus size passed to cats -train.
	Corpus = 4000
	// ScanScale sizes the scan-crawl crawl (D1 shape, ~5,900 items).
	ScanScale = 0.004
	// FreshParts crawls of FreshScale each make up serve-fresh's items,
	// generated under distinct platform tags so no item id repeats:
	// ~71k items. A run uses ~17k today (a 1 s warm-up and 8 s at
	// ~1,900 items/s), so a server four times faster still does not run
	// out, which would fail the run.
	FreshParts = 12
	FreshScale = 0.004
	// RequestItems is the number of items per detect request.
	RequestItems = 8
	// PoolScale sizes the crawl the hot pool is drawn from; the pool is
	// its PoolFraud fraud and PoolNormal normal items with the most
	// comments.
	PoolScale  = 0.002
	PoolFraud  = 8
	PoolNormal = 24
	// PoolBodies distinct 8-item request bodies are drawn from the pool.
	PoolBodies = 256
	// Window is the feedback window the trainer retrains on (catsserve's
	// default), filled before timing; FeedbackPost labeled items ride on
	// each feedback post during timing; FeedbackSpare sizes the labeled
	// set beyond the window.
	Window        = 2048
	FeedbackPost  = 32
	FeedbackSpare = 4096
	// SalesCutoff and Threshold are the detector's defaults: items
	// selling fewer than SalesCutoff are filtered with score 0, and an
	// item is reported when its score is at least Threshold.
	SalesCutoff = 5
	Threshold   = 0.5
)

// Seed offsets keep every generated set on its own random stream.
const (
	offFresh    = 1_000_000
	offPool     = 9_000_000
	offFeedback = 7_000_000
)

// Truth is one generated item's ground truth and shape.
type Truth struct {
	ID       string
	Fraud    bool
	Sales    int
	Comments int
}

func truthOf(it *cats.Item) Truth {
	return Truth{ID: it.ID, Fraud: it.Label.IsFraud(), Sales: it.SalesVolume, Comments: len(it.Comments)}
}

func config(base synth.Config, scale float64, seed int64, platform string) synth.Config {
	cfg := base.Scale(scale)
	cfg.Seed += seed
	if platform != "" {
		cfg.Platform = platform
	}
	return cfg
}

// jsonlFile writes one JSON object per line.
type jsonlFile struct {
	f  *os.File
	bw *bufio.Writer
}

func createJSONL(path string) (*jsonlFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &jsonlFile{f: f, bw: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (j *jsonlFile) write(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	j.bw.Write(b)
	return j.bw.WriteByte('\n')
}

// close flushes the file and writes its pages back, so that write-back
// does not land in a timed phase.
func (j *jsonlFile) close() error {
	err := j.bw.Flush()
	if err == nil {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// unlabeled returns a copy of the item with its label cleared, as a
// crawl would see it.
func unlabeled(it *cats.Item) *cats.Item {
	c := *it
	c.Label = cats.Normal
	return &c
}

// WriteTrain writes the labeled D0-shaped training set and returns its
// item count.
func WriteTrain(path string, seed int64) (int, error) {
	out, err := createJSONL(path)
	if err != nil {
		return 0, err
	}
	st, err := synth.Stream(config(synth.D0Config(), TrainScale, seed, ""), func(it *cats.Item) error {
		return out.write(it)
	})
	if err != nil {
		out.close()
		return 0, err
	}
	return st.Items, out.close()
}

// Crawl is a generated crawl: ground truth in input order plus the
// sampled items kept whole for the single-item cross-check.
type Crawl struct {
	Truth   []Truth
	Samples []cats.Item
}

// SampleEvery is the stride of items kept whole for the cross-check.
const SampleEvery = 37

func (c *Crawl) add(it *cats.Item) {
	if len(c.Truth)%SampleEvery == 0 {
		c.Samples = append(c.Samples, *it)
	}
	c.Truth = append(c.Truth, truthOf(it))
}

// WriteCrawl writes scan-crawl's unlabeled D1-shaped crawl as JSONL,
// the format the collector writes.
func WriteCrawl(path string, seed int64) (*Crawl, error) {
	out, err := createJSONL(path)
	if err != nil {
		return nil, err
	}
	c := &Crawl{}
	_, err = synth.Stream(config(synth.D1Config(), ScanScale, seed, ""), func(it *cats.Item) error {
		c.add(it)
		return out.write(unlabeled(it))
	})
	if err != nil {
		out.close()
		return nil, err
	}
	return c, out.close()
}

// Bodies are pre-encoded request bodies, spread over one file per
// crawl part: request i is Len[i] bytes at Off[i] in Files[File[i]].
type Bodies struct {
	Files []string
	File  []int
	Off   []int64
	Len   []int
}

// detectBody is the /v1/detect request shape.
type detectBody struct {
	Items []*cats.Item `json:"items"`
}

// part is one fresh crawl part's bodies and ground truth.
type part struct {
	crawl Crawl
	off   []int64
	len   []int
	err   error
}

// writePart streams crawl part k straight into its bodies file,
// RequestItems unlabeled items per body; a trailing partial request is
// dropped with its items. Part 0 is also written as JSONL for the
// traced run.
func writePart(dir string, k int, seed int64) (p part, path string) {
	path = fmt.Sprintf("%s/fresh%d.bodies", dir, k)
	f, err := os.Create(path)
	if err != nil {
		return part{err: err}, path
	}
	defer f.Close()
	var items *jsonlFile
	if k == 0 {
		if items, p.err = createJSONL(dir + "/fresh.jsonl"); p.err != nil {
			return p, path
		}
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var off int64
	req := make([]*cats.Item, 0, RequestItems)
	var truth []Truth
	var samples []cats.Item
	cfg := config(synth.D1Config(), FreshScale, seed+int64(offFresh*(k+1)), fmt.Sprintf("fresh%d", k))
	_, p.err = synth.Stream(cfg, func(it *cats.Item) error {
		u := unlabeled(it)
		if items != nil {
			if err := items.write(u); err != nil {
				return err
			}
		}
		truth = append(truth, truthOf(it))
		if (len(p.crawl.Truth)+len(truth)-1)%SampleEvery == 0 {
			samples = append(samples, *it)
		}
		req = append(req, u)
		if len(req) < RequestItems {
			return nil
		}
		body, err := json.Marshal(detectBody{Items: req})
		if err != nil {
			return err
		}
		bw.Write(body)
		p.off = append(p.off, off)
		p.len = append(p.len, len(body))
		off += int64(len(body))
		req = req[:0]
		p.crawl.Truth = append(p.crawl.Truth, truth...)
		p.crawl.Samples = append(p.crawl.Samples, samples...)
		truth, samples = truth[:0], samples[:0]
		return nil
	})
	if items != nil {
		if err := items.close(); p.err == nil {
			p.err = err
		}
	}
	if err := bw.Flush(); p.err == nil {
		p.err = err
	}
	// Write the pages back now, not during the timed phase.
	if err := f.Sync(); p.err == nil {
		p.err = err
	}
	return p, path
}

// WriteFresh writes serve-fresh's request bodies into dir: FreshParts
// D1-shaped crawls under distinct platform tags, so no item repeats,
// generated two at a time. Samples are kept whole for the cross-check.
func WriteFresh(dir string, seed int64) (*Crawl, *Bodies, error) {
	parts := make([]part, FreshParts)
	b := &Bodies{Files: make([]string, FreshParts)}
	for lo := 0; lo < FreshParts; lo += 2 {
		done := make(chan struct{}, 2)
		n := 0
		for k := lo; k < lo+2 && k < FreshParts; k++ {
			n++
			go func(k int) {
				parts[k], b.Files[k] = writePart(dir, k, seed)
				done <- struct{}{}
			}(k)
		}
		for ; n > 0; n-- {
			<-done
		}
	}
	c := &Crawl{}
	for k := range parts {
		if parts[k].err != nil {
			return nil, nil, parts[k].err
		}
		c.Truth = append(c.Truth, parts[k].crawl.Truth...)
		c.Samples = append(c.Samples, parts[k].crawl.Samples...)
		for i := range parts[k].off {
			b.File = append(b.File, k)
			b.Off = append(b.Off, parts[k].off[i])
			b.Len = append(b.Len, parts[k].len[i])
		}
	}
	return c, b, nil
}

// writeItems writes items as JSONL, optionally with their labels.
func writeItems(path string, items []cats.Item, labeled bool) error {
	out, err := createJSONL(path)
	if err != nil {
		return err
	}
	for i := range items {
		it := &items[i]
		if !labeled {
			it = unlabeled(it)
		}
		if err := out.write(it); err != nil {
			out.close()
			return err
		}
	}
	return out.close()
}

// HotPool generates serve-retrain's trending items: from a D1-shaped
// crawl, the PoolFraud fraud and PoolNormal normal items with the most
// comments (ties broken by id), in id order. It writes them unlabeled
// as JSONL for the traced run.
func HotPool(path string, seed int64) ([]cats.Item, error) {
	var fraud, normal []cats.Item
	_, err := synth.Stream(config(synth.D1Config(), PoolScale, seed+offPool, "hot"), func(it *cats.Item) error {
		if it.Label.IsFraud() {
			fraud = append(fraud, *it)
		} else {
			normal = append(normal, *it)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	top := func(items []cats.Item, n int) []cats.Item {
		sort.SliceStable(items, func(i, j int) bool {
			if len(items[i].Comments) != len(items[j].Comments) {
				return len(items[i].Comments) > len(items[j].Comments)
			}
			return items[i].ID < items[j].ID
		})
		if len(items) < n {
			n = len(items)
		}
		return items[:n]
	}
	pool := append(top(fraud, PoolFraud), top(normal, PoolNormal)...)
	sort.Slice(pool, func(i, j int) bool { return pool[i].ID < pool[j].ID })
	return pool, writeItems(path, pool, false)
}

// Feedback generates the labeled D0-shaped outcomes posted to
// /v1/feedback: Window items to fill the window before timing, then
// FeedbackSpare more for the posts made during timing. It writes them
// labeled as JSONL for the traced run.
func Feedback(path string, seed int64) ([]cats.Item, error) {
	cfg := config(synth.D0Config(), 1, seed+offFeedback, "fb")
	total := cfg.FraudEvidence + cfg.FraudManual + cfg.Normal
	want := float64(Window+FeedbackSpare+64) / float64(total)
	cfg = config(synth.D0Config(), want, seed+offFeedback, "fb")
	var items []cats.Item
	_, err := synth.Stream(cfg, func(it *cats.Item) error {
		items = append(items, *it)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(items) < Window+FeedbackSpare {
		return nil, fmt.Errorf("inputs: feedback set has %d items, want %d", len(items), Window+FeedbackSpare)
	}
	return items, writeItems(path, items, true)
}

// FormatScore prints a score as the cats command prints it.
func FormatScore(s float64) string { return strconv.FormatFloat(s, 'f', 4, 64) }
