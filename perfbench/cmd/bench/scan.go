package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/perfbench/internal/inputs"
	"repro/perfbench/internal/span"
)

// scanCrawl runs cats -load-model <snapshot> -detect crawl.jsonl over
// the seeded D1-shaped crawl: whole scans until the timed phase is
// over. Every scan's output is checked. A scan whose process exits
// with an error is a failed operation for each crawl item.
func scanCrawl(o *options) (*report, *checker, error) {
	rep := newReport()
	if _, err := inputs.WriteTrain(o.path("train.jsonl"), o.seed); err != nil {
		return nil, nil, err
	}
	crawl, err := inputs.WriteCrawl(o.path("crawl.jsonl"), o.seed)
	if err != nil {
		return nil, nil, err
	}
	n := setups
	if o.trace {
		n = 1
	}
	su, err := setUp(o, n, nil)
	if err != nil {
		return nil, nil, err
	}
	chk, err := newChecker(crawl.Truth, crawl.Samples, su.snapshot)
	if err != nil {
		return nil, nil, err
	}
	scan := func(i int) (usage, error) {
		out := o.path("scan.tsv")
		u, err := run(o.path("scan.log"), filepath.Join(o.bin, "cats"),
			"-load-model", su.snapshot, "-detect", o.path("crawl.jsonl"), "-out", out)
		if err != nil {
			return u, err
		}
		return u, checkScan(chk, out, crawl.Truth, i == 0)
	}
	var walls, raw, cpus, rss []float64
	var wall, cpu time.Duration
	items := 0
	// timed scans until seconds have passed and returns the finished
	// scans' wall time net of host steal.
	timed := func(seconds float64, traced bool) (net time.Duration) {
		start := time.Now()
		for time.Since(start).Seconds() < seconds {
			var sp *span.Open
			if traced {
				sp = o.rec.Start("client.scan", 0, int64(len(walls)))
			}
			u, e := scan(len(walls))
			if sp != nil {
				sp.End(int64(len(crawl.Truth)))
			}
			items += len(crawl.Truth)
			var exit *exec.ExitError
			if errors.As(e, &exit) {
				rep.failed += len(crawl.Truth)
				continue
			}
			if e != nil {
				err = e
				break
			}
			net += u.net
			if !traced {
				wall += u.net
				cpu += u.cpu
			}
			walls = append(walls, u.net.Seconds())
			raw = append(raw, u.wall.Seconds())
			cpus = append(cpus, u.cpu.Seconds()*1e6/float64(len(crawl.Truth)))
			rss = append(rss, float64(u.maxRSS)/(1<<20))
		}
		return net
	}
	secs := o.seconds
	if o.trace {
		secs /= 2
	}
	untracedWall := timed(secs, false)
	untraced := len(walls)
	if err == nil && untraced == 0 {
		err = fmt.Errorf("no scan finished; see %s", o.path("scan.log"))
	}
	if err != nil {
		return nil, nil, err
	}
	if o.trace {
		tracedWall := timed(secs, true)
		if err != nil {
			return nil, nil, err
		}
		outside, err := serveProbe(o, su.snapshot)
		if err != nil {
			return nil, nil, err
		}
		outside["core.cores_busy"] = cpu.Seconds() / wall.Seconds()
		outside["trace.overhead_pct"] = overheadPct(untracedWall, tracedWall,
			untraced*len(crawl.Truth), (len(walls)-untraced)*len(crawl.Truth))
		outside["_cpu_us_per_item"] = median(cpus[:untraced])
		if err := rep.layers(o, su.snapshot, outside); err != nil {
			return nil, nil, err
		}
	} else {
		rep.set("setup_s", "s", median(su.setup))
		rep.set("retrain_s", "s", median(su.train))
		rep.set("throughput_items_per_s", "items/s", float64(len(crawl.Truth))/median(walls))
		rep.set("latency_p50_ms", "ms", median(walls)*1e3)
		rep.set("cpu_us_per_item", "us", median(cpus))
		rep.set("peak_rss_mb", "MiB", median(rss))
	}
	rep.attempted = items
	rep.details["scans"] = len(walls)
	rep.details["scan_net_s"] = walls
	rep.details["scan_wall_s"] = raw
	rep.details["cores_busy"] = cpu.Seconds() / wall.Seconds()
	rep.details["setup_s"] = su.setup
	rep.details["setup_wall_s"] = su.raw
	rep.details["makeup"] = makeup(crawl.Truth)
	rep.details["quality"] = chk.scanQuality
	return rep, chk, nil
}

// serveProbe measures the layers inside catsserve on scan-crawl's own
// items, which the scan itself never serves: it boots catsserve with
// default flags on the snapshot and sends the crawl as 8-item detect
// requests from the closed-loop callers for a few seconds, starting
// over when the crawl runs out. It runs because a traced run prints
// every per-layer metric, and the scan itself starts no server.
func serveProbe(o *options, snapshot string) (map[string]float64, error) {
	const probeSeconds = 3
	raw, err := os.ReadFile(o.path("crawl.jsonl"))
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var bodies [][]byte
	for lo := 0; lo+inputs.RequestItems <= len(lines); lo += inputs.RequestItems {
		bodies = append(bodies, []byte(`{"items":[`+strings.Join(lines[lo:lo+inputs.RequestItems], ",")+`]}`))
	}
	t0 := time.Now()
	srv, err := startServer(filepath.Join(o.bin, "catsserve"), o.path("serve.log"), "-model", snapshot)
	if err != nil {
		return nil, err
	}
	boot := time.Since(t0).Seconds()
	c := newClient(srv.base)
	g := &loadGen{c: c}
	ph, err := measure(srv, c, probeSeconds, func(deadline time.Time) {
		g.drive(deadline, math.MaxInt, 1, func(i int) ([]byte, error) { return bodies[i%len(bodies)], nil })
	})
	if _, e := srv.stop(); err == nil {
		err = e
	}
	if err == nil {
		err = g.err
	}
	if err != nil {
		return nil, err
	}
	ph.detectStats(g.calls, 1)
	return serverLayers(ph.before, ph.after, ph.latencies, ph.items, []float64{boot}), nil
}

// checkScan checks one scan's output: one line per input item in input
// order, each passing the item checks; the first scan also checks
// quality against ground truth.
func checkScan(chk *checker, path string, truth []inputs.Truth, first bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() || sc.Text() != "item_id\tscore\tfraud\tfiltered" {
		chk.fail("scan output lacks its header")
		return nil
	}
	reported := make(map[string]bool, len(truth))
	i := 0
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 4 {
			chk.fail("scan line %d: %q", i+1, sc.Text())
			continue
		}
		score, err1 := strconv.ParseFloat(fields[1], 64)
		fraud, err2 := strconv.ParseBool(fields[2])
		filtered, err3 := strconv.ParseBool(fields[3])
		if err1 != nil || err2 != nil || err3 != nil {
			chk.fail("scan line %d: %q", i+1, sc.Text())
			continue
		}
		if i >= len(truth) || fields[0] != truth[i].ID {
			chk.fail("scan line %d answers %q out of input order", i+1, fields[0])
		}
		if _, dup := reported[fields[0]]; dup {
			chk.fail("item %s answered twice in one scan", fields[0])
		}
		reported[fields[0]] = fraud
		chk.item(verdict{id: fields[0], score: score, scoreText: fields[1], fraud: fraud, filtered: filtered})
		i++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if i != len(truth) {
		chk.fail("scan answered %d items, input has %d", i, len(truth))
	}
	if first {
		p, r, f := chk.quality("scan-crawl", reported)
		chk.scanQuality = map[string]float64{"precision": p, "recall": r, "f1": f}
	}
	return nil
}

// makeup summarizes a set of items for the README's input table.
func makeup(truth []inputs.Truth) map[string]any {
	var comments, below, fraud int
	for _, t := range truth {
		comments += t.Comments
		if t.Sales < inputs.SalesCutoff {
			below++
		}
		if t.Fraud {
			fraud++
		}
	}
	n := float64(len(truth))
	return map[string]any{
		"items":             len(truth),
		"comments":          comments,
		"comments_per_item": float64(comments) / n,
		"below_cutoff":      float64(below) / n,
		"fraud":             float64(fraud) / n,
	}
}
