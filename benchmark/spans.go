package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one harness-side interval: what the harness itself called and
// for how long. Spans stay in memory and are written out when the
// benchmark ends; spans inside the engine are a later issue.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spans collects spans. A nil *spans records nothing, which is how
// untraced runs pay nothing for it.
type spans struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) now() int64 { return time.Since(s.t0).Microseconds() }

// begin opens a span under parent and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{ID: len(s.spans) + 1, Parent: parent, Name: name, StartUS: s.now(), EndUS: -1})
	return len(s.spans)
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans[id-1].EndUS = s.now()
}

// add records a span whose interval is already known (epoch phases and
// fences reconstructed from the coordinator's JSONL).
func (s *spans) add(name string, parent int, startUS, endUS int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{ID: len(s.spans) + 1, Parent: parent, Name: name, StartUS: startUS, EndUS: endUS})
}

// offsetUS is wall-clock instant t on this collector's clock.
func (s *spans) offsetUS(t time.Time) int64 {
	if s == nil {
		return 0
	}
	return t.Sub(s.t0).Microseconds()
}

func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := json.Marshal(s.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
