package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one traffic mix against the daemon.
type workload struct {
	name  string
	mode  string  // trngd -mode
	size  int     // bytes per /random request
	conns int     // client connections (= request loops)
	rate  float64 // open-loop arrivals per second; 0 means closed loop
}

// workloads are the benchmark's traffic mixes. A closed-loop drbg-bulk
// mix (64 KiB requests) was tried and left out: while the shard
// producers spin on both CPUs its goodput spread run to run by more
// than any allowed bound.
var workloads = []workload{
	{name: "drbg-sparse", mode: "drbg", size: 32, conns: 2, rate: 26},
	{name: "raw-seed", mode: "raw", size: 32, conns: 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// schedule returns the open-loop arrival offsets over span at a fixed
// rate per second: one arrival in every 1/rate slot, at an offset
// inside the slot drawn from seed. Arrivals never depend on responses,
// the count per window is exact (so the tail percentiles always have
// their samples), and the same seed always yields the same schedule.
func schedule(seed uint64, rate float64, span time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, 0x5ced_0b5e))
	slot := float64(time.Second) / rate
	n := int(math.Round(span.Seconds() * rate))
	out := make([]time.Duration, n)
	for k := range out {
		out[k] = time.Duration((float64(k) + r.Float64()) * slot)
	}
	return out
}

// request is the client-side record of one /random call. due is when
// the request was due: its scheduled arrival in an open loop, the
// previous completion on the same connection in a closed loop.
type request struct {
	due, sent, hdr, end, checked time.Time
	ok                           bool
	traced                       bool
}

// latency is the user-visible latency, timed from the due time.
func (r request) latency() time.Duration { return r.end.Sub(r.due) }

// lateness is how late the generator sent the request.
func (r request) lateness() time.Duration { return r.sent.Sub(r.due) }

// outputCheck consumes the bodies of good responses. One instance per
// connection, merged at the end, so the hot path takes no lock.
type outputCheck interface {
	add(body []byte)
	merge(other outputCheck)
}

// drbgCheck keeps what the DRBG checks need: the leading 8 bytes of
// every 16-byte block (a repeated block repeats its key) and the byte
// frequencies for the χ² bound.
type drbgCheck struct {
	keys   []uint64
	counts [256]uint64
}

func (c *drbgCheck) add(body []byte) {
	for off := 0; off+16 <= len(body); off += 16 {
		c.keys = append(c.keys, binary.LittleEndian.Uint64(body[off:]))
	}
	for _, b := range body {
		c.counts[b]++
	}
}

func (c *drbgCheck) merge(o outputCheck) {
	oc := o.(*drbgCheck)
	c.keys = append(c.keys, oc.keys...)
	for i, n := range oc.counts {
		c.counts[i] += n
	}
}

// rawCheck keeps every served body for the comparison with the
// in-process Fill stream.
type rawCheck struct{ bodies [][]byte }

func (c *rawCheck) add(body []byte) { c.bodies = append(c.bodies, append([]byte(nil), body...)) }

func (c *rawCheck) merge(o outputCheck) { c.bodies = append(c.bodies, o.(*rawCheck).bodies...) }

func newCheck(mode string) outputCheck {
	if mode == "raw" {
		return &rawCheck{}
	}
	return &drbgCheck{}
}

// loadRun drives one workload from start until stop.
type loadRun struct {
	w      workload
	client *http.Client
	url    string
	start  time.Time
	stop   time.Time
	sched  []time.Duration // open loop only
	next   atomic.Int64    // next schedule index
	traced func(due time.Time) bool
	tracer *tracer // nil in an untraced run
	ids    atomic.Uint64

	conns []connState
}

// connState is one connection's private results.
type connState struct {
	reqs  []request
	fails []string
	check outputCheck
}

// newLoad prepares a run of w against base; every connection gets its
// own output check.
func newLoad(w workload, base string, start, stop time.Time, seed uint64) *loadRun {
	tr := &http.Transport{
		MaxConnsPerHost:     w.conns,
		MaxIdleConnsPerHost: w.conns,
		DisableCompression:  true,
	}
	l := &loadRun{
		w:      w,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		url:    base + "/random?bytes=" + strconv.Itoa(w.size),
		start:  start,
		stop:   stop,
		traced: func(time.Time) bool { return false },
		conns:  make([]connState, w.conns),
	}
	if w.rate > 0 {
		l.sched = schedule(seed, w.rate, stop.Sub(start))
	}
	for i := range l.conns {
		l.conns[i].check = newCheck(w.mode)
	}
	return l
}

// run drives every connection until the run ends and waits for them.
func (l *loadRun) run(ctx context.Context) {
	var wg sync.WaitGroup
	for i := range l.conns {
		wg.Add(1)
		go func(c *connState) {
			defer wg.Done()
			l.loop(ctx, c)
		}(&l.conns[i])
	}
	wg.Wait()
	l.client.CloseIdleConnections()
}

// loop is one connection's request loop.
func (l *loadRun) loop(ctx context.Context, c *connState) {
	buf := make([]byte, l.w.size+1)
	prev := time.Now()
	if prev.Before(l.start) {
		time.Sleep(time.Until(l.start))
		prev = l.start
	}
	for ctx.Err() == nil {
		var due time.Time
		if l.sched != nil {
			i := l.next.Add(1) - 1
			if i >= int64(len(l.sched)) {
				return
			}
			due = l.start.Add(l.sched[i])
			time.Sleep(time.Until(due))
		} else {
			due = prev
			if !due.Before(l.stop) {
				return
			}
		}
		r := request{due: due, traced: l.traced(due)}
		err := l.do(ctx, &r, buf, c.check)
		prev = r.end
		r.ok = err == nil
		if err != nil {
			c.fails = append(c.fails, err.Error())
		}
		if r.traced {
			l.tracer.requestSpans(l.ids.Add(1), r)
		}
		c.reqs = append(c.reqs, r)
	}
}

// do performs one request, checks its length and hands the body to the
// output check.
func (l *loadRun) do(ctx context.Context, r *request, buf []byte, chk outputCheck) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.url, nil)
	if err != nil {
		return err
	}
	r.sent = time.Now()
	resp, err := l.client.Do(req)
	r.hdr = time.Now()
	if err != nil {
		r.end, r.checked = r.hdr, r.hdr
		return fmt.Errorf("transport: %w", err)
	}
	n, err := io.ReadFull(resp.Body, buf)
	resp.Body.Close()
	r.end = time.Now()
	r.checked = r.end
	switch {
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %d", resp.StatusCode)
	case n != l.w.size || !errors.Is(err, io.ErrUnexpectedEOF):
		// ReadFull into a buffer one byte longer than the request ends
		// in ErrUnexpectedEOF exactly when the body has the right size.
		return fmt.Errorf("body %d bytes, want %d (%v)", n, l.w.size, err)
	}
	chk.add(buf[:n])
	r.checked = time.Now()
	return nil
}

// loadResult aggregates a finished run over the requests due inside
// the measured window [from, ∞).
type loadResult struct {
	attempted, failed int
	goodBytes         int64
	latencies         []time.Duration // good requests, from due time
	sendLatencies     []time.Duration // good requests, from send time
	lateness          []time.Duration
	lastEnd           time.Time
	fails             []string
	check             outputCheck
	reqs              []request // every request of the run, warmup included
	from              time.Time // start of the measured window
}

func (l *loadRun) result(from time.Time) loadResult {
	res := loadResult{check: newCheck(l.w.mode), from: from}
	for i := range l.conns {
		c := &l.conns[i]
		res.check.merge(c.check)
		res.fails = append(res.fails, c.fails...)
		res.reqs = append(res.reqs, c.reqs...)
		for _, r := range c.reqs {
			if r.due.Before(from) {
				continue
			}
			res.attempted++
			if r.end.After(res.lastEnd) {
				res.lastEnd = r.end
			}
			if !r.ok {
				res.failed++
				continue
			}
			res.goodBytes += int64(l.w.size)
			res.latencies = append(res.latencies, r.latency())
			res.sendLatencies = append(res.sendLatencies, r.end.Sub(r.sent))
			res.lateness = append(res.lateness, r.lateness())
		}
	}
	// Failures during warmup still fail the run.
	for _, r := range res.reqs {
		if !r.ok && r.due.Before(from) {
			res.failed++
			res.attempted++
		}
	}
	return res
}
