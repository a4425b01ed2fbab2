package tcp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dbtf/internal/transport"
)

// writeTimeout bounds a single reply write on the executor side so a
// wedged coordinator cannot pin a worker in a blocked write forever.
const writeTimeout = time.Minute

// Server runs the executor side of the protocol: it pumps frames from
// coordinator connections into a transport.Host and supports a graceful
// drain (Shutdown) that finishes in-flight stage batches instead of
// dying mid-batch.
type Server struct {
	host transport.Host
	logf func(format string, args ...any)

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]*connState //dbtf:guardedby mu
	draining bool                    //dbtf:guardedby mu
	wg       sync.WaitGroup

	// answering is held from a request's first host call until its reply is
	// written (see serveConn). Never taken with mu held.
	answering sync.Mutex
}

// connState tracks one connection's drain-relevant state.
type connState struct {
	busy bool // a request frame is being processed; guarded by Server.mu
}

// NewServer returns a Server executing stage work on host. logf, when
// non-nil, receives one line per connection transition.
func NewServer(host transport.Host, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{host: host, logf: logf, conns: map[net.Conn]*connState{}}
}

// Serve accepts coordinator connections on lis until the listener is
// closed. Each connection is a sequential request/response stream served
// on its own goroutine; the coordinator holds one connection per worker,
// so concurrency only arises across a redial racing a dying connection,
// and those take turns, a whole request and its reply at a time. Closing
// the listener directly (without Shutdown) closes every active connection
// before Serve returns; after Shutdown, Serve returns nil as soon as the
// accept loop unblocks and Shutdown owns the remaining connections.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("tcp: Serve on a draining server")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			if !draining {
				for c := range s.conns {
					// The readers notice the close; their errors are theirs.
					_ = c.Close()
				}
			}
			s.mu.Unlock()
			if !draining {
				s.wg.Wait()
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("tcp: accept: %w", err)
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			// Best effort: the drain already refused the connection.
			_ = conn.Close()
			continue
		}
		st := &connState{}
		s.conns[conn] = st
		s.wg.Add(1)
		s.mu.Unlock()
		go func(conn net.Conn, st *connState) {
			defer s.wg.Done()
			s.logf("coordinator connected from %s", conn.RemoteAddr())
			err := s.serveConn(conn, st)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			if err != nil {
				s.logf("connection from %s ended: %v", conn.RemoteAddr(), err)
			} else {
				s.logf("connection from %s closed", conn.RemoteAddr())
			}
		}(conn, st)
	}
}

// Shutdown drains the server: stop accepting, close idle connections,
// let connections that are mid-request finish the current reply, and
// wait for them up to drainTimeout before force-closing the stragglers
// and returning. It returns the listener-close error, if any. Safe to
// call once.
func (s *Server) Shutdown(drainTimeout time.Duration) error {
	s.mu.Lock()
	s.draining = true
	lis := s.lis
	for c, st := range s.conns {
		if !st.busy {
			// Unblocks the connection's read; serveConn maps the resulting
			// ErrClosed to a clean exit while draining.
			_ = c.Close()
		}
	}
	s.mu.Unlock()

	var lerr error
	if lis != nil {
		if err := lis.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			lerr = err
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if drainTimeout > 0 {
		timer := time.NewTimer(drainTimeout)
		defer timer.Stop()
		select {
		case <-done:
			return lerr
		case <-timer.C:
		}
	}
	// Drain timeout expired (or none given): force-close whatever is left
	// and return without waiting — the caller is exiting, and a host call
	// that outlived the drain budget cannot be waited on in bounded time.
	s.mu.Lock()
	for c := range s.conns {
		// The blocked reader/writer notices the close.
		_ = c.Close()
	}
	s.mu.Unlock()
	return lerr
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) setBusy(st *connState, busy bool) {
	s.mu.Lock()
	st.busy = busy
	s.mu.Unlock()
}

// Serve runs the executor side of the protocol on lis, pumping frames
// into host, until the listener is closed. It is NewServer(host,
// logf).Serve(lis) for callers that do not need graceful drain.
func Serve(lis net.Listener, host transport.Host, logf func(format string, args ...any)) error {
	return NewServer(host, logf).Serve(lis)
}

// handle answers one request of an established connection. A MsgRun's
// states are applied in order before its batch runs, and the first one the
// host rejects fails the request naming its kind. The batch is
// all-or-nothing: any task failure turns it into an error frame, so the
// coordinator never has to reconcile a partially delivered batch.
func (s *Server) handle(req *transport.Msg) transport.Msg {
	if req.Type != transport.MsgRun {
		return transport.Msg{Type: transport.MsgError, Error: fmt.Sprintf("unexpected message type %d", req.Type)}
	}
	for _, st := range req.States {
		if err := s.host.Apply(st.Kind, st.Payload); err != nil {
			return transport.Msg{Type: transport.MsgError, Error: fmt.Sprintf("applying %s state: %v", st.Kind, err)}
		}
	}
	if len(req.Tasks) == 0 {
		return transport.Msg{Type: transport.MsgResult}
	}
	outs, err := s.host.RunBatch(req.Spec, req.Tasks)
	if err != nil {
		return transport.Msg{Type: transport.MsgError, Error: fmt.Sprintf("stage %q %v", req.Spec.Name, err)}
	}
	return transport.Msg{Type: transport.MsgResult, Outputs: outs}
}

// serveConn handshakes and then answers requests until the connection
// drops. Every request produces exactly one reply frame, in order; this
// strict alternation is what lets the coordinator treat a batch reply as
// all-or-nothing when it reroutes work after a loss — and what lets the
// connection keep one frame codec: a request's payloads are the host's
// for the length of its calls, and are overwritten by the next read. While
// a request is being processed the connection is marked busy so Shutdown
// will not close it under the handler; after the reply, a draining server
// closes the connection instead of reading the next request.
func (s *Server) serveConn(conn net.Conn, st *connState) error {
	defer func() {
		// Either the peer is gone or we already have a more precise error.
		_ = conn.Close()
	}()
	var fw transport.FrameWriter
	var fr transport.FrameReader
	reply := func(m *transport.Msg) error {
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			return err
		}
		_, err := fw.Write(conn, m, transport.DefaultMaxFrame)
		return err
	}
	hello, _, err := fr.Read(conn, transport.DefaultMaxFrame)
	if err != nil {
		if s.isDraining() && errors.Is(err, net.ErrClosed) {
			return nil
		}
		return fmt.Errorf("reading hello: %w", err)
	}
	if hello.Type != transport.MsgHello || hello.Proto != transport.ProtoVersion {
		// Best effort: the handshake failed; the close is the real answer.
		_ = reply(&transport.Msg{Type: transport.MsgError,
			Error: fmt.Sprintf("bad handshake: type=%d proto=%d (want hello/%d)", hello.Type, hello.Proto, transport.ProtoVersion)})
		return fmt.Errorf("bad handshake: type=%d proto=%d", hello.Type, hello.Proto)
	}
	if err := reply(&transport.Msg{Type: transport.MsgHelloOK, Proto: transport.ProtoVersion}); err != nil {
		return fmt.Errorf("writing hello ack: %w", err)
	}
	for {
		req, _, err := fr.Read(conn, transport.DefaultMaxFrame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if s.isDraining() && errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.setBusy(st, true)
		// What the host returns is its own until its next call: that call
		// must not start, on a redial racing this dying connection, while
		// the reply is still being written.
		s.answering.Lock()
		resp := s.handle(req)
		err = reply(&resp)
		s.answering.Unlock()
		s.setBusy(st, false)
		if err != nil {
			return err
		}
		if s.isDraining() {
			// Batch answered; now it is safe to go.
			return nil
		}
	}
}
