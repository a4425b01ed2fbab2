package trace

// tee fans every event out to several sinks in order. It relies on the
// Tracer's single-goroutine Sink contract, so it needs no locking of its
// own; each wrapped sink still sees the same contract.
type tee struct {
	sinks []Sink
}

// NewTee returns a Sink writing every event to each of sinks in order.
// The first Write error is returned (later sinks still receive the
// event); Close closes every sink and returns the first close error.
// The job server tees each job's stream to its durable JSONL file and
// the in-memory tail served by the progress endpoint.
func NewTee(sinks ...Sink) Sink {
	return &tee{sinks: sinks}
}

func (t *tee) Write(e *Event) error {
	var first error
	for _, s := range t.sinks {
		if err := s.Write(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Borrows reports whether every branch borrows: only then is the tee done
// with an event when Write returns.
func (t *tee) Borrows() bool {
	for _, s := range t.sinks {
		if !borrows(s) {
			return false
		}
	}
	return true
}

func (t *tee) Close() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
