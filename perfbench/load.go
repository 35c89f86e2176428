package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is a minimal HTTP/1.1 client on one keep-alive connection. The
// request line and headers are formatted into a reused buffer and sent
// with the pre-encoded body in one writev, so the load generator allocates nothing
// per request and its GC stays off the server's cores.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	hdr  []byte
	resp []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// post sends POST /classify with the given X-Request-Id and body and reads
// the response. The returned body aliases the connection's buffer and is
// valid until the next call.
func (c *conn) post(id, body []byte) (status int, resp []byte, err error) {
	h := append(c.hdr[:0], "POST /classify HTTP/1.1\r\nHost: udtserve\r\nContent-Type: application/json\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(len(body)), 10)
	h = append(h, "\r\nX-Request-Id: "...)
	h = append(h, id...)
	h = append(h, "\r\n\r\n"...)
	c.hdr = h
	bufs := net.Buffers{h, body}
	if _, err := bufs.WriteTo(c.c); err != nil {
		return 0, nil, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	n := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			n, err = strconv.Atoi(string(bytes.TrimSpace(v)))
			if err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			return 0, nil, errors.New("chunked response: the load generator reads Content-Length bodies only")
		}
	}
	if n < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(c.resp) < n {
		c.resp = make([]byte, n)
	}
	c.resp = c.resp[:n]
	if _, err := io.ReadFull(c.br, c.resp); err != nil {
		return 0, nil, err
	}
	return status, c.resp, nil
}

// setTimerSlack sets this thread's timer slack to 1 ns. Linux lets a
// sleeping thread wake up to 50 µs late by default, a large share of a
// sub-millisecond arrival gap. The setting is per thread, so the pacer
// calls it before every sleep.
func setTimerSlack() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the calling thread in nanosleep until due (measured
// from start). Go timers are not used: the runtime's netpoller rounds
// sub-millisecond waits up to a millisecond, which would pace the open
// loop by the generator rather than the schedule.
func sleepUntil(start time.Time, due time.Duration) {
	for {
		d := due - time.Since(start)
		if d <= 0 {
			return
		}
		setTimerSlack()
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// sample is one request's timeline, in nanoseconds since the leg's start:
// due (scheduled), picked (a connection took it), sent (written), done
// (response read).
type sample struct {
	due, picked, sent, done time.Duration
	conn                    int
	id                      int64
	tried                   bool // sent: false when an open loop gave up on it
	ok                      bool // the verified response came back
}

// leg is what one load phase produced.
type leg struct {
	samples []sample
	start   time.Time
	elapsed time.Duration // start to the last response
	errs    []string      // first few failures, for the report
	closed  bool          // a closed loop: due is when a connection took the request
}

// loadSpec describes one load phase against a server.
type loadSpec struct {
	addr   string
	bodies [][]byte // pre-encoded request bodies, used round-robin
	expect [][]byte // the verified response body for each
	conns  int
	idBase int64   // request ids are "pb-<idBase+i>"
	rate   float64 // open loop: arrivals per second; 0 = closed loop
	dur    time.Duration
	// giveUp ends an open loop this long after its last arrival was due;
	// requests not yet sent by then count as failed (a backlog that grows
	// without bound).
	giveUp time.Duration
	start  time.Time // when the phase's clock starts; zero = 2 ms after run is called
}

// run drives the phase: an open loop (request i due at i/rate, taken by
// whichever of the conns connections is free, latency timed from due) or,
// with rate 0, a closed loop (each connection sends its next request when
// the previous one returns) until dur has passed.
func (s loadSpec) run() leg {
	total := int(s.rate * s.dur.Seconds())
	if s.rate == 0 {
		total = 1 << 30
	}
	var samples []sample
	if s.rate > 0 {
		samples = make([]sample, total)
	}
	perConn := make([][]sample, s.conns)
	var next atomic.Int64
	var mu sync.Mutex
	var errs []string
	fail := func(format string, args ...any) {
		mu.Lock()
		if len(errs) < 5 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}
	start := s.start
	if start.IsZero() {
		start = time.Now().Add(2 * time.Millisecond)
	}
	stopAt := s.dur
	if s.rate > 0 {
		stopAt = s.dur + s.giveUp
	}
	var wg sync.WaitGroup
	for w := 0; w < s.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := dial(s.addr)
			if err != nil {
				fail("dial: %v", err)
			}
			defer func() {
				if c != nil {
					c.close()
				}
			}()
			var id []byte
			for {
				i := next.Add(1) - 1
				if int(i) >= total {
					return
				}
				var sm sample
				sm.id, sm.conn = s.idBase+i, w
				if s.rate > 0 {
					sm.due = time.Duration(float64(i) * 1e9 / s.rate)
				}
				sm.picked = time.Since(start)
				if s.rate == 0 {
					if sm.picked >= s.dur {
						return
					}
					sm.due = sm.picked
				} else if sm.picked < sm.due {
					sleepUntil(start, sm.due)
				}
				k := int(i) % len(s.bodies)
				sm.sent = time.Since(start)
				if (s.rate == 0 || sm.sent < stopAt) && c != nil {
					sm.tried = true
					id = strconv.AppendInt(append(id[:0], "pb-"...), sm.id, 10)
					status, resp, err := c.post(id, s.bodies[k])
					sm.done = time.Since(start)
					switch {
					case err != nil:
						fail("request %d: %v", sm.id, err)
						c.close()
						c, _ = dial(s.addr)
					case status != 200:
						fail("request %d: status %d: %.200s", sm.id, status, resp)
					case !bytes.Equal(resp, s.expect[k]):
						fail("request %d: response differs from the verified one for body %d", sm.id, k)
					default:
						sm.ok = true
					}
				}
				if s.rate > 0 {
					samples[i] = sm
				} else {
					perConn[w] = append(perConn[w], sm)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.rate == 0 {
		for _, pc := range perConn {
			samples = append(samples, pc...)
		}
	}
	var last time.Duration
	for _, sm := range samples {
		last = max(last, sm.done)
	}
	return leg{samples: samples, start: start, elapsed: last, errs: errs, closed: s.rate == 0}
}

// failures counts requests that were sent and did not return the
// verified response; unsent counts those an open loop gave up on.
func (l leg) failures() (failed, unsent int) {
	for _, s := range l.samples {
		switch {
		case !s.tried:
			unsent++
		case !s.ok:
			failed++
		}
	}
	return failed, unsent
}

// latencies returns due-to-done times in ms; a failed request counts as
// +Inf, so it misses every latency limit.
func (l leg) latencies() []float64 {
	xs := make([]float64, len(l.samples))
	for i, s := range l.samples {
		if s.ok {
			xs[i] = ms(s.done - s.due)
		} else {
			xs[i] = inf
		}
	}
	return xs
}

// lagsUs returns, per request, how late the pacer sent it after it was
// both due and taken by a connection (microseconds).
func (l leg) lagsUs() []float64 {
	xs := make([]float64, len(l.samples))
	for i, s := range l.samples {
		xs[i] = float64(s.sent-max(s.due, s.picked)) / 1e3
	}
	return xs
}

// connWaitUs is the mean time requests waited for a free connection after
// they were due (microseconds).
func (l leg) connWaitUs() float64 {
	t := 0.0
	for _, s := range l.samples {
		t += float64(max(s.picked-s.due, 0)) / 1e3
	}
	return t / float64(len(l.samples))
}

// segmentStats applies the package's segmentStats to a leg: an open
// loop's requests are placed by due time, a closed loop's by completion;
// work is one per verified response, over seconds, or over the window's
// length when seconds is 0.
func (l leg) segmentStats(window time.Duration, seconds float64) (thr, p50, p90 float64, p50s []float64) {
	at := make([]time.Duration, len(l.samples))
	work := make([]float64, len(l.samples))
	for i, s := range l.samples {
		at[i] = s.due
		if l.closed {
			at[i] = s.done
		}
		if s.ok {
			work[i] = 1
		}
	}
	if seconds == 0 {
		seconds = window.Seconds()
	}
	return segmentStats(at, l.latencies(), work, window, seconds)
}
