package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"udt/internal/modelio"
)

// The shape of a drive is fixed: the smokes need a known tuple count and
// zero failures, not a tunable load.
const (
	BatchSize   = 16 // tuples per batch request
	StreamLines = 16 // NDJSON lines per stream request
	Conns       = 4  // closed-loop senders, each with one request in flight
)

// Result counts the answers of one drive. Every request lands in exactly
// one of OK and Failed.
type Result struct {
	OK      int
	Failed  int            // transport errors, non-2xx answers, broken streams
	ByModel map[string]int // OK answers per model name; nil without models
}

// request is one prepared POST.
type request struct {
	path, contentType string
	body              []byte
	stream            bool
	model             string
}

// Drive sends n requests to the server at base and waits for every answer.
// Request i is a single tuple, a batch of BatchSize tuples or a stream of
// StreamLines tuples by i mod 3, with payloads drawn from p by a generator
// seeded with seed, so equal seeds send identical request sequences. Without
// models the requests go to /classify and /classify/stream; with models,
// each run of three consecutive requests goes to the next model in turn,
// under /v1/models/{name}/, so every model gets every kind of request. Conns
// senders each wait for an answer before sending again: nothing is timed,
// and a slow server only makes the drive take longer.
func Drive(ctx context.Context, client *http.Client, base string, p *Payloads, seed int64, n int, models ...string) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("loadgen: %d requests", n)
	}
	smp, err := newSampler(seed, p)
	if err != nil {
		return Result{}, err
	}
	reqs := make([]request, n)
	work := make(chan int, n)
	for i := range reqs {
		reqs[i] = smp.draw(i)
		if len(models) > 0 {
			reqs[i].model = models[i/3%len(models)]
			reqs[i].path = "/v1/models/" + reqs[i].model + reqs[i].path
		}
		work <- i
	}
	close(work)

	ok := make([]bool, n)
	var wg sync.WaitGroup
	for range Conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				ok[i] = send(ctx, client, base, &reqs[i])
			}
		}()
	}
	wg.Wait()

	res := Result{}
	if len(models) > 0 {
		res.ByModel = map[string]int{}
	}
	for i, r := range reqs {
		if !ok[i] {
			res.Failed++
			continue
		}
		res.OK++
		if res.ByModel != nil {
			res.ByModel[r.model]++
		}
	}
	return res, nil
}

// draw builds request i: a single tuple, a batch or a stream by i mod 3.
func (s *sampler) draw(i int) request {
	switch i % 3 {
	case 0:
		return request{path: "/classify", contentType: "application/json", body: s.next()}
	case 1:
		body := []byte(`{"tuples":[`)
		for j := range BatchSize {
			if j > 0 {
				body = append(body, ',')
			}
			body = append(body, s.next()...)
		}
		return request{path: "/classify", contentType: "application/json", body: append(body, "]}"...)}
	default:
		var body []byte
		for range StreamLines {
			body = append(append(body, s.next()...), '\n')
		}
		return request{path: "/classify/stream", contentType: "application/x-ndjson", body: body, stream: true}
	}
}

// send posts one request and reports whether it was answered in full: a
// 2xx status, a body read to EOF, and for a stream one result line per
// tuple sent with no in-band error.
func send(ctx context.Context, client *http.Client, base string, r *request) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", r.contentType)
	res, err := client.Do(req)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil || res.StatusCode/100 != 2 {
		return false
	}
	if !r.stream {
		return true
	}
	lines := 0
	for sc := bufio.NewScanner(bytes.NewReader(body)); sc.Scan(); lines++ {
		var line modelio.StreamResult
		if json.Unmarshal(sc.Bytes(), &line) != nil || line.Error != "" {
			return false
		}
	}
	return lines == StreamLines
}
