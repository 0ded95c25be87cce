package server

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"

	"retrograde/internal/awari"
)

func TestQueryRoundTrip(t *testing.T) {
	qs := []Query{
		{Kind: KindValue, Board: awari.Board{1, 2, 3, 0, 0, 0, 4, 0, 0, 0, 0, 5}},
		{Kind: KindBestMove, Board: awari.Board{0, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 2}},
		{Kind: KindLine, Board: awari.Board{1, 1, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0}, MaxPlies: 10},
		{Kind: KindProbe, Shard: "ttt", Index: 123456789},
	}
	frame, err := EncodeQueries(42, qs)
	if err != nil {
		t.Fatal(err)
	}
	kind, body, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameQuery {
		t.Fatalf("frame type = %d, want %d", kind, FrameQuery)
	}
	id, got, err := decodeQueries(body)
	if err != nil {
		t.Fatal(err)
	}
	if id != 42 {
		t.Errorf("id = %d, want 42", id)
	}
	if !reflect.DeepEqual(got, qs) {
		t.Errorf("decoded queries = %+v, want %+v", got, qs)
	}
}

func TestAnswerRoundTrip(t *testing.T) {
	as := []Answer{
		{Value: 7, Pit: -1},
		{Value: 3, Pit: 4, Line: []int8{4, 0, 2}},
		{Err: "no database for 49 stones"},
		{Value: 0, Pit: 0},
	}
	frame := encodeAnswers(7, as)
	kind, body, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameReply {
		t.Fatalf("frame type = %d, want %d", kind, FrameReply)
	}
	id, got, err := DecodeAnswers(body)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Errorf("id = %d, want 7", id)
	}
	if !reflect.DeepEqual(got, as) {
		t.Errorf("decoded answers = %+v, want %+v", got, as)
	}
}

func TestOverloadRoundTrip(t *testing.T) {
	frame := encodeOverload(99)
	kind, body, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if kind != FrameOverload || len(body) != 4 {
		t.Fatalf("frame = type %d, %d body bytes", kind, len(body))
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, err := EncodeQueries(0, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := EncodeQueries(0, make([]Query, MaxBatch+1)); err == nil {
		t.Error("oversized batch accepted")
	}
	if _, err := EncodeQueries(0, []Query{{Kind: KindLine, MaxPlies: MaxLinePlies + 1}}); err == nil {
		t.Error("oversized line accepted")
	}
	if _, err := EncodeQueries(0, []Query{{Kind: KindProbe, Shard: ""}}); err == nil {
		t.Error("empty shard name accepted")
	}
	if _, err := EncodeQueries(0, []Query{{Kind: KindProbe, Shard: strings.Repeat("x", 256)}}); err == nil {
		t.Error("oversized shard name accepted")
	}
	if _, err := EncodeQueries(0, []Query{{Kind: 99}}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestDecodeRejects(t *testing.T) {
	// A board pit over MaxStones must be refused at decode time.
	frame, err := EncodeQueries(0, []Query{{Kind: KindValue, Board: awari.Board{49}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeQueries(frame[5:]); err == nil {
		t.Error("board with a 49-stone pit accepted")
	}
	// Truncated bodies must error, not panic.
	good, err := EncodeQueries(3, []Query{{Kind: KindProbe, Shard: "ttt", Index: 9}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 5; cut < len(good); cut++ {
		if _, _, err := decodeQueries(good[5:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Implausible frame sizes are refused before allocation.
	var head [8]byte
	head[0] = 0xFF
	head[1] = 0xFF
	head[2] = 0xFF
	head[3] = 0x7F
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(head[:]))); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestPingPongFrames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		kind  byte
	}{
		{"ping", EncodePing(77), FramePing},
		{"pong", encodePong(78), FramePong},
	} {
		kind, body, err := readFrame(bufio.NewReader(bytes.NewReader(tc.frame)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if kind != tc.kind {
			t.Fatalf("%s: frame type = %d, want %d", tc.name, kind, tc.kind)
		}
		id, err := frameID(body)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[byte]uint32{FramePing: 77, FramePong: 78}[tc.kind]; id != want {
			t.Errorf("%s: id = %d, want %d", tc.name, id, want)
		}
	}
	if _, err := frameID([]byte{1, 2}); err == nil {
		t.Error("frameID accepted a truncated body")
	}
}
