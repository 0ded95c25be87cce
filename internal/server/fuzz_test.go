package server

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzFrameDecode throws arbitrary bytes at the wire-facing decode path —
// readFrame and the per-kind body decoders — which consume input straight
// off public TCP sockets and therefore must never panic, whatever a
// client sends.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 0})
	f.Add(EncodePing(7))
	if q, err := EncodeQueries(42, []Query{{Kind: KindProbe, Shard: "s", Index: 99}}); err == nil {
		f.Add(q)
	}
	f.Add(append(EncodePing(7), encodeOverload(8)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("frame decode panicked on %x: %v", data, r)
			}
		}()
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			kind, body, err := readFrame(br)
			if err != nil {
				return
			}
			switch kind {
			case FrameQuery:
				decodeQueries(body)
			case FrameReply:
				DecodeAnswers(body)
			case FramePing, FramePong, FrameOverload:
				frameID(body)
			}
		}
	})
}
