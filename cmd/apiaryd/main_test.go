package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"apiary/internal/accel"
	"apiary/internal/apps"
	"apiary/internal/core"
	"apiary/internal/msg"
	"apiary/internal/noc"
)

// echoBoard boots a 3x3 board with every message sampled into the flight
// recorder and runs an echo service plus a requester to completion, so both
// the monitor trace ring and the span recorder hold events from a real run.
func echoBoard(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.SystemConfig{
		Dims: noc.Dims{W: 3, H: 3}, ManagedMemBytes: 1 << 20, SpanSampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := apps.NewRequester(msg.FirstUserService, 8, 100,
		func(int) []byte { return make([]byte, 32) }, nil)
	if _, err := sys.Kernel.LoadApp(core.AppSpec{
		Name: "echo",
		Accels: []core.AppAccel{
			{Name: "echo", Service: msg.FirstUserService,
				New: func() accel.Accelerator {
					return apps.NewStage(apps.StageConfig{
						Name:    "echo",
						Process: func(in []byte) ([]byte, msg.ErrCode) { return in, msg.EOK },
					})
				}},
			{Name: "req", Connect: []msg.ServiceID{msg.FirstUserService},
				New: func() accel.Accelerator { return req }},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if !sys.Engine.RunUntil(req.Done, 200_000) {
		t.Fatal("requester did not finish")
	}
	return sys
}

// getTimestamps fetches a Chrome trace-event route and returns every
// event's ts field.
func getTimestamps(t *testing.T, mux *http.ServeMux, route string) []float64 {
	t.Helper()
	rw := httptest.NewRecorder()
	mux.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, route, nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", route, rw.Code)
	}
	var evs []struct {
		TS float64 `json:"ts"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &evs); err != nil {
		t.Fatalf("GET %s: %v", route, err)
	}
	ts := make([]float64, len(evs))
	for i, e := range evs {
		ts[i] = e.TS
	}
	return ts
}

// TestTraceRoutesShareTimebase pins the unit of both Chrome timelines: an
// event at cycle C appears at ts == C/ClockMHz microseconds in /trace.json
// (monitor verdicts) and in /spans.json (NoC spans).
func TestTraceRoutesShareTimebase(t *testing.T) {
	sys := echoBoard(t)
	var mu sync.Mutex
	mux := boardMux(sys, nil, &mu)
	mhz := float64(sys.Engine.ClockMHz())

	evs := sys.Tracer.Events()
	ts := getTimestamps(t, mux, "/trace.json")
	if len(evs) == 0 || len(ts) != len(evs) {
		t.Fatalf("/trace.json: %d events for %d traced", len(ts), len(evs))
	}
	for i, e := range evs {
		if want := float64(e.Cycle) / mhz; ts[i] != want {
			t.Fatalf("/trace.json event %d at cycle %d: ts=%v, want %v", i, e.Cycle, ts[i], want)
		}
	}

	ents := sys.Obs.Entries()
	if len(ents) == 0 {
		t.Fatal("flight recorder sampled no spans")
	}
	ts = getTimestamps(t, mux, "/spans.json")
	if len(ts) == 0 {
		t.Fatal("/spans.json: no events")
	}
	// The first slice is the first entry's whole-lifetime span, which
	// starts at the cycle the message was queued.
	c := ents[0].Span.Queued
	if want := float64(c) / mhz; ts[0] != want {
		t.Fatalf("/spans.json span queued at cycle %d: ts=%v, want %v", c, ts[0], want)
	}
}
