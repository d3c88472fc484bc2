package mq

import (
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// Hardening tests: hostile or broken clients must not crash or wedge
// the broker server.

func rawDial(t *testing.T, s *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// serverStillServes proves the server survives by completing a
// normal request on a fresh connection.
func serverStillServes(t *testing.T, s *Server) {
	t.Helper()
	if err := s.broker.DeclareQueue("liveness", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, s)
	if _, err := c.QueueStats("liveness"); err != nil {
		t.Fatalf("server no longer serves: %v", err)
	}
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	_, s := startServer(t)
	conn := rawDial(t, s)
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: nope\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	serverStillServes(t, s)
}

func TestServerSurvivesHugeLengthPrefix(t *testing.T) {
	_, s := startServer(t)
	conn := rawDial(t, s)
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], 0xFFFFFFFF)
	if _, err := conn.Write(buf[:]); err != nil {
		t.Fatal(err)
	}
	// The server must reject the frame and drop the connection; the
	// read on our side eventually fails or returns nothing.
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	one := make([]byte, 1)
	_, _ = conn.Read(one)
	serverStillServes(t, s)
}

func TestServerSurvivesTruncatedFrame(t *testing.T) {
	_, s := startServer(t)
	conn := rawDial(t, s)
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], 100) // promise 100 bytes
	if _, err := conn.Write(buf[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"op":"pub`)); err != nil { // deliver 10
		t.Fatal(err)
	}
	_ = conn.Close() // hang up mid-frame
	serverStillServes(t, s)
}

func TestServerSurvivesMalformedJSONFrame(t *testing.T) {
	_, s := startServer(t)
	conn := rawDial(t, s)
	payload := []byte("{this is not json")
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	if _, err := conn.Write(append(lenBuf[:], payload...)); err != nil {
		t.Fatal(err)
	}
	serverStillServes(t, s)
}

func TestServerSurvivesUnknownOp(t *testing.T) {
	b, s := startServer(t)
	if err := b.DeclareQueue("q", QueueOptions{}); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, s)
	// Reach through the RPC plumbing with an op the server does not
	// know; it must answer with an error frame, not drop us.
	if _, err := c.rpc(&frame{Op: "self-destruct"}); err == nil {
		t.Fatal("unknown op must return an error")
	}
	// Same connection still works.
	if _, err := c.QueueStats("q"); err != nil {
		t.Fatal(err)
	}
}

func TestServerSurvivesRapidConnectDisconnect(t *testing.T) {
	_, s := startServer(t)
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	}
	serverStillServes(t, s)
}
