package main

import (
	"bufio"
	"net"
	"sync"
)

// echoServer is the wire speed probe's far end: a loopback TCP server made
// of the standard library only, answering every line with the same line.
// A round trip through it costs what the machine charges for one
// line-out/line-in exchange and nothing the repository wrote.
type echoServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func newEchoServer() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &echoServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // closed
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serve(c)
		}
	}()
	return s, nil
}

func (s *echoServer) serve(c net.Conn) {
	defer s.wg.Done()
	br, bw := bufio.NewReader(c), bufio.NewWriter(c)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		if _, err := bw.Write(line); err != nil {
			return
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// close stops the listener and every connection, and waits for their
// goroutines.
func (s *echoServer) close() {
	_ = s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// echoConn is the probe's client side. Like client.Conn it lets one
// request onto the wire at a time, so slots sharing it queue the same way.
type echoConn struct {
	mu sync.Mutex
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func (s *echoServer) dial() (*echoConn, error) {
	c, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	return &echoConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

func (e *echoConn) roundTrip(line []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.bw.Write(line); err != nil {
		return err
	}
	if err := e.bw.Flush(); err != nil {
		return err
	}
	_, err := e.br.ReadSlice('\n')
	return err
}
