package testkit

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pmove/internal/tsdb"
)

// server is what the kill fault acts on.
type server interface {
	Listen(addr string) (string, error)
	Serve(ln net.Listener)
	Close() error
}

var servers = []struct {
	name string
	new  func() server
}{
	{"tsdb", func() server { return tsdb.NewServer(tsdb.New()) }},
}

// lateListener loses the close-vs-accept race on purpose: Accept hands
// over its one live connection only once Close has been called — which
// the server's Close does holding its lock, after it swept the
// connection set.
type lateListener struct {
	conn   net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *lateListener) Accept() (net.Conn, error) {
	<-l.closed
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	return nil, net.ErrClosed
}
func (l *lateListener) Close() error   { l.once.Do(func() { close(l.closed) }); return nil }
func (l *lateListener) Addr() net.Addr { return nil }

func closeWithin(t *testing.T, srv server, d time.Duration, what string) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("%s: Close: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s: Close hung on a connection accepted while it ran", what)
	}
}

// TestServerCloseRefusesLateConnection: a kill must not wait for a
// client that connected while it ran. The late connection is closed
// unserved while its peer stays connected; before the servers shared one
// close-vs-accept rule it was served, nothing ever closed it, and Close
// returned when the peer left.
func TestServerCloseRefusesLateConnection(t *testing.T) {
	for _, s := range servers {
		t.Run(s.name, func(t *testing.T) {
			srv := s.new()
			conn, peer := net.Pipe()
			defer peer.Close()
			srv.Serve(&lateListener{conn: conn, closed: make(chan struct{})})
			closeWithin(t, srv, 5*time.Second, "late connection")
			peer.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("late connection: read %v, want EOF (closed unserved)", err)
			}
		})
	}
}

// TestServerCloseUnderDialStorm is the same window found the way
// reconnecting clients find it: dialers racing Close on real sockets,
// each holding whatever connection it got until the round is over.
func TestServerCloseUnderDialStorm(t *testing.T) {
	const rounds, dialers = 60, 4
	for _, s := range servers {
		t.Run(s.name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				srv := s.new()
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for i := 0; i < dialers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var held []net.Conn
						defer func() {
							for _, c := range held {
								c.Close()
							}
						}()
						for {
							select {
							case <-stop:
								return
							default:
							}
							c, err := net.DialTimeout("tcp", addr, time.Second)
							if err != nil {
								<-stop // listener gone: hold the rest until the round ends
								return
							}
							held = append(held, c)
						}
					}()
				}
				time.Sleep(time.Duration(round%4) * 200 * time.Microsecond)
				closeWithin(t, srv, 2*time.Second, "dial storm")
				close(stop)
				wg.Wait()
			}
		})
	}
}
