package serve

import (
	"encoding/json"
	"os"
	"sync"

	"dbtf/internal/trace"
)

// jsonlFileSink appends events to a per-job JSONL file, one unbuffered
// line per event so a follower reading the file sees progress live. The
// Tracer serializes Write calls; concurrent readers only ever observe
// whole lines because each event is a single write.
type jsonlFileSink struct {
	f   *os.File
	enc *json.Encoder
}

func newJSONLFileSink(path string) (*jsonlFileSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &jsonlFileSink{f: f, enc: json.NewEncoder(f)}, nil
}

func (s *jsonlFileSink) Write(ev *trace.Event) error { return s.enc.Encode(ev) }

func (s *jsonlFileSink) Close() error { return s.f.Close() }

// progressSink is the in-memory branch of a job's trace tee: it folds
// the stream into the live progress numbers the job-status endpoint
// reports, without touching disk.
type progressSink struct {
	mu         sync.Mutex
	iterations int
	lastError  int64
	events     int64
}

// Progress is a job's live progress snapshot, folded from its trace
// stream.
type Progress struct {
	// Iterations is the number of completed iterations observed across
	// all slices.
	Iterations int `json:"iterations"`
	// LastError is the reconstruction error after the latest iteration;
	// meaningful when Iterations > 0.
	LastError int64 `json:"last_error"`
	// Events is the total trace events emitted for the job.
	Events int64 `json:"events"`
}

func (p *progressSink) Write(ev *trace.Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events++
	if ev.Type == trace.IterationEnd {
		p.iterations++
		if ev.Error != nil {
			p.lastError = *ev.Error
		}
	}
	return nil
}

func (p *progressSink) Close() error { return nil }

func (p *progressSink) snapshot() Progress {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Progress{Iterations: p.iterations, LastError: p.lastError, Events: p.events}
}
