package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"seprivgemb/internal/spec"
)

// postJSON sends body (already JSON) and decodes a 2xx answer into out.
func (s *server) postJSON(ctx context.Context, path string, body []byte, out any) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.do(req, out)
}

// getJSON fetches path and decodes a 2xx answer into out.
func (s *server) getJSON(ctx context.Context, path string, out any) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, err
	}
	return s.do(req, out)
}

func (s *server) do(req *http.Request, out any) (time.Duration, error) {
	raw, elapsed, err := s.fetch(req)
	if err != nil {
		return elapsed, err
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return elapsed, fmt.Errorf("%s %s: decoding: %w", req.Method, req.URL.Path, err)
		}
	}
	return elapsed, nil
}

// fetch sends req and returns the body of a 2xx answer with the time
// from sending to the last body byte.
func (s *server) fetch(req *http.Request) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	if err != nil {
		return nil, elapsed, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, elapsed, &statusError{req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(raw))}
	}
	return raw, elapsed, nil
}

// statusError is a non-2xx answer.
type statusError struct {
	method, path string
	code         int
	body         string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: %d %s", e.method, e.path, e.code, e.body)
}

// awaitResult waits until a job whose stream reported done serves its
// result. seprivd publishes the terminal stream event before the job
// counts as finished on the result routes, so a result request sent
// right after the event can be answered 409 "poll GET /v1/jobs/{id}";
// this polls, as that answer asks, for up to five seconds.
func (s *server) awaitResult(ctx context.Context, id string) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := s.getJSON(ctx, "/v1/jobs/"+id+"/result?embedding=none", nil)
		var se *statusError
		if err == nil || !errors.As(err, &se) || se.code != http.StatusConflict || time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// streamResult is what a client saw on one job's event stream.
type streamResult struct {
	events   int
	terminal spec.JobEvent
	doneAt   time.Time // when the terminal event arrived
}

// followJob reads GET /v1/jobs/{id}/events until the terminal event. The
// SSE parsing is the benchmark's own: "event:" and "data:" lines, one
// event per blank-line-terminated block.
func (s *server) followJob(ctx context.Context, id string) (streamResult, error) {
	var sr streamResult
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return sr, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return sr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return sr, fmt.Errorf("events %s: %d %s", id, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	var name string
	var data []byte
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return sr, fmt.Errorf("events %s: stream ended before a terminal event: %w", id, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event:"):
			name = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && len(data) > 0:
			var ev spec.JobEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return sr, fmt.Errorf("events %s: %w", id, err)
			}
			if ev.Type != name {
				return sr, fmt.Errorf("events %s: event name %q carries type %q", id, name, ev.Type)
			}
			sr.events++
			data = data[:0]
			if ev.Terminal() {
				sr.terminal = ev
				sr.doneAt = time.Now()
				return sr, nil
			}
		}
	}
}

// runJob submits one job spec and follows its stream to the end: the
// closed-loop unit of the job workloads. It returns the job ID, the
// wall time from submission to the terminal event, and records the
// HTTP-boundary layer figures when tracing.
func (b *bench) runJob(ctx context.Context, srv *server, body []byte) (string, time.Duration, error) {
	start := time.Now()
	var jr spec.JobResponse
	submit, err := srv.postJSON(ctx, "/v1/jobs", body, &jr)
	if err != nil {
		return "", 0, err
	}
	sr, err := srv.followJob(ctx, jr.ID)
	if err != nil {
		return jr.ID, 0, err
	}
	if sr.terminal.Type != "done" {
		return jr.ID, 0, fmt.Errorf("job %s ended %s: %s", jr.ID, sr.terminal.Type, sr.terminal.Error)
	}
	elapsed := time.Since(start)
	if err := srv.awaitResult(ctx, jr.ID); err != nil {
		return jr.ID, 0, err
	}
	b.noteJob(jr.ID, submit, sr, time.Since(sr.doneAt))
	return jr.ID, elapsed, nil
}

// exportRows fetches a finished job's whole embedding through the
// embedding=range page cursor, following range.next to the end, and
// checks that every page carries the same full-matrix hash.
func (s *server) exportRows(ctx context.Context, id string, page int) ([][]float64, string, error) {
	var rows [][]float64
	var hash string
	nodes := -1
	next := fmt.Sprintf("/v1/jobs/%s/result?embedding=range&offset=0&limit=%d", id, page)
	for next != "" {
		var rr spec.ResultResponse
		if _, err := s.getJSON(ctx, next, &rr); err != nil {
			return nil, "", err
		}
		if nodes < 0 {
			hash, nodes = rr.EmbeddingHash, rr.Nodes
		}
		switch {
		case rr.EmbeddingHash != hash:
			return nil, "", failf("job %s: page at row %d has hash %s, earlier pages %s", id, len(rows), rr.EmbeddingHash, hash)
		case rr.Range == nil || rr.Range.Offset != len(rows) || rr.RowCount != len(rr.Embedding):
			return nil, "", failf("job %s: page at row %d is out of sequence", id, len(rows))
		}
		rows = append(rows, rr.Embedding...)
		if len(rows) > nodes {
			return nil, "", failf("job %s: cursor ran past %d rows", id, nodes)
		}
		next = rr.Range.Next
	}
	if len(rows) != nodes {
		return nil, "", failf("job %s: cursor ended after %d of %d rows", id, len(rows), nodes)
	}
	return rows, hash, nil
}
