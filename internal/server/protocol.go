// Package server is a long-lived, concurrent query service over built
// endgame databases — the paper's databases doing their production job.
// Where cmd/raquery re-opens and fully loads every .radb file per
// invocation, the server discovers database shards on disk once, loads
// them on demand under a memory budget (LRU eviction, ref-counted so
// in-flight queries never race an eviction), and answers batched queries
// over a length-framed binary protocol with an HTTP/JSON endpoint on the
// same listener. A bounded queue sheds load with an explicit "overloaded"
// response instead of buffering without bound, and per-shard hit/miss/
// eviction counters plus latency histograms are exposed through
// internal/stats tables and /stats.
package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"retrograde/internal/awari"
	"retrograde/internal/game"
)

// Frame types on the wire. Every frame is length(4, LE, excluding
// itself) | type(1) | id(4, LE) | body — the framing idiom of
// internal/remote, with a request id so clients can pipeline batches.
// The types, together with readFrame and the Encode/Decode helpers, are
// exported so other front ends speaking this protocol (the rabroker
// serving tier) need no second implementation.
const (
	FrameQuery    byte = iota + 1 // client -> server: a batch of queries
	FrameReply                    // server -> client: answers, same order
	FrameOverload                 // server -> client: batch refused (shed load)
	FramePing                     // client -> server: liveness probe
	FramePong                     // server -> client: liveness echo
)

// Query kinds.
const (
	// KindValue asks for the database value of an awari board.
	KindValue byte = iota
	// KindBestMove also asks for the best move.
	KindBestMove
	// KindLine asks for the optimal line, up to MaxPlies plies.
	KindLine
	// KindProbe asks for entry Index of the named shard, any game.
	KindProbe
)

// Limits enforced on both sides of the wire.
const (
	maxFrameSize = 16 << 20
	// MaxBatch is the largest number of queries one frame may carry.
	MaxBatch = 4096
	// MaxLinePlies caps a KindLine request.
	MaxLinePlies = 512
)

// Query is one question for the server.
type Query struct {
	// Kind selects the question.
	Kind byte
	// Board is the position, for the awari kinds.
	Board awari.Board
	// MaxPlies bounds the optimal line (KindLine).
	MaxPlies int
	// Shard names the table and Index the entry (KindProbe).
	Shard string
	Index uint64
}

// Answer is the server's reply to one Query, in batch order.
type Answer struct {
	// Err is non-empty when this query failed; the other fields are
	// meaningless then. Failures are per-query: one bad board does not
	// poison its batch.
	Err string
	// Value is the database value (for boards: stones the mover captures).
	Value game.Value
	// Pit is the best move, -1 when absent (KindValue, KindProbe,
	// terminal positions).
	Pit int
	// Line holds the pits of the optimal line (KindLine).
	Line []int8
}

// Board queries: 12 pit bytes. Line adds max plies (2). Probe: name
// length (1) | name | index (8). Answers: status (1); errors carry
// length (2) | message, successes value (2) | pit (1, two's complement) |
// line length (2) | line pits.

// EncodeQueries builds a FrameQuery for the batch.
func EncodeQueries(id uint32, qs []Query) ([]byte, error) {
	if len(qs) == 0 || len(qs) > MaxBatch {
		return nil, fmt.Errorf("server: batch of %d queries outside [1, %d]", len(qs), MaxBatch)
	}
	buf := make([]byte, 0, 16+13*len(qs))
	buf = append(buf, 0, 0, 0, 0) // length, patched below
	buf = append(buf, FrameQuery)
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(qs)))
	for i, q := range qs {
		buf = append(buf, q.Kind)
		switch q.Kind {
		case KindValue, KindBestMove, KindLine:
			for _, c := range q.Board {
				if c < 0 {
					return nil, fmt.Errorf("server: query %d: negative pit count", i)
				}
				buf = append(buf, byte(c))
			}
			if q.Kind == KindLine {
				if q.MaxPlies < 0 || q.MaxPlies > MaxLinePlies {
					return nil, fmt.Errorf("server: query %d: line of %d plies outside [0, %d]", i, q.MaxPlies, MaxLinePlies)
				}
				buf = binary.LittleEndian.AppendUint16(buf, uint16(q.MaxPlies))
			}
		case KindProbe:
			if len(q.Shard) == 0 || len(q.Shard) > 255 {
				return nil, fmt.Errorf("server: query %d: shard name of %d bytes outside [1, 255]", i, len(q.Shard))
			}
			buf = append(buf, byte(len(q.Shard)))
			buf = append(buf, q.Shard...)
			buf = binary.LittleEndian.AppendUint64(buf, q.Index)
		default:
			return nil, fmt.Errorf("server: query %d: unknown kind %d", i, q.Kind)
		}
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf, nil
}

// decodeQueries parses a FrameQuery body (after the type byte).
func decodeQueries(body []byte) (id uint32, qs []Query, err error) {
	if len(body) < 6 {
		return 0, nil, fmt.Errorf("server: truncated query frame")
	}
	id = binary.LittleEndian.Uint32(body)
	count := int(binary.LittleEndian.Uint16(body[4:]))
	if count == 0 || count > MaxBatch {
		return id, nil, fmt.Errorf("server: batch of %d queries outside [1, %d]", count, MaxBatch)
	}
	body = body[6:]
	qs = make([]Query, count)
	for i := range qs {
		if len(body) < 1 {
			return id, nil, fmt.Errorf("server: truncated query %d", i)
		}
		q := &qs[i]
		q.Kind = body[0]
		body = body[1:]
		switch q.Kind {
		case KindValue, KindBestMove, KindLine:
			if len(body) < awari.Pits {
				return id, nil, fmt.Errorf("server: truncated board in query %d", i)
			}
			for p := 0; p < awari.Pits; p++ {
				q.Board[p] = int8(body[p])
				if body[p] > awari.MaxStones {
					return id, nil, fmt.Errorf("server: query %d: pit %d holds %d stones, max %d", i, p, body[p], awari.MaxStones)
				}
			}
			body = body[awari.Pits:]
			if q.Kind == KindLine {
				if len(body) < 2 {
					return id, nil, fmt.Errorf("server: truncated line length in query %d", i)
				}
				q.MaxPlies = int(binary.LittleEndian.Uint16(body))
				if q.MaxPlies > MaxLinePlies {
					return id, nil, fmt.Errorf("server: query %d: line of %d plies exceeds %d", i, q.MaxPlies, MaxLinePlies)
				}
				body = body[2:]
			}
		case KindProbe:
			if len(body) < 1 {
				return id, nil, fmt.Errorf("server: truncated shard name in query %d", i)
			}
			nameLen := int(body[0])
			if len(body) < 1+nameLen+8 {
				return id, nil, fmt.Errorf("server: truncated probe in query %d", i)
			}
			q.Shard = string(body[1 : 1+nameLen])
			q.Index = binary.LittleEndian.Uint64(body[1+nameLen:])
			body = body[1+nameLen+8:]
		default:
			return id, nil, fmt.Errorf("server: query %d: unknown kind %d", i, q.Kind)
		}
	}
	if len(body) != 0 {
		return id, nil, fmt.Errorf("server: %d trailing bytes after batch", len(body))
	}
	return id, qs, nil
}

// encodeAnswers builds a FrameReply for the batch.
func encodeAnswers(id uint32, as []Answer) []byte {
	buf := make([]byte, 0, 16+8*len(as))
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, FrameReply)
	buf = binary.LittleEndian.AppendUint32(buf, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(as)))
	for _, a := range as {
		if a.Err != "" {
			msg := a.Err
			if len(msg) > 1<<15 {
				msg = msg[:1<<15]
			}
			buf = append(buf, 1)
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
			buf = append(buf, msg...)
			continue
		}
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(a.Value))
		buf = append(buf, byte(int8(a.Pit)))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a.Line)))
		for _, p := range a.Line {
			buf = append(buf, byte(p))
		}
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	return buf
}

// DecodeAnswers parses a FrameReply body (after the type byte).
func DecodeAnswers(body []byte) (id uint32, as []Answer, err error) {
	if len(body) < 6 {
		return 0, nil, fmt.Errorf("server: truncated reply frame")
	}
	id = binary.LittleEndian.Uint32(body)
	count := int(binary.LittleEndian.Uint16(body[4:]))
	body = body[6:]
	as = make([]Answer, count)
	for i := range as {
		if len(body) < 1 {
			return id, nil, fmt.Errorf("server: truncated answer %d", i)
		}
		status := body[0]
		body = body[1:]
		switch status {
		case 1:
			if len(body) < 2 {
				return id, nil, fmt.Errorf("server: truncated error in answer %d", i)
			}
			msgLen := int(binary.LittleEndian.Uint16(body))
			if len(body) < 2+msgLen {
				return id, nil, fmt.Errorf("server: truncated error message in answer %d", i)
			}
			as[i].Err = string(body[2 : 2+msgLen])
			body = body[2+msgLen:]
		case 0:
			if len(body) < 5 {
				return id, nil, fmt.Errorf("server: truncated answer %d", i)
			}
			as[i].Value = game.Value(binary.LittleEndian.Uint16(body))
			as[i].Pit = int(int8(body[2]))
			lineLen := int(binary.LittleEndian.Uint16(body[3:]))
			body = body[5:]
			if len(body) < lineLen {
				return id, nil, fmt.Errorf("server: truncated line in answer %d", i)
			}
			if lineLen > 0 {
				as[i].Line = make([]int8, lineLen)
				for p := 0; p < lineLen; p++ {
					as[i].Line[p] = int8(body[p])
				}
			}
			body = body[lineLen:]
		default:
			return id, nil, fmt.Errorf("server: unknown answer status %d", status)
		}
	}
	if len(body) != 0 {
		return id, nil, fmt.Errorf("server: %d trailing bytes after answers", len(body))
	}
	return id, as, nil
}

// encodeOverload builds a FrameOverload.
func encodeOverload(id uint32) []byte { return encodeBare(FrameOverload, id) }

// EncodePing builds a FramePing: the cheapest possible health check, one
// queue-bypassing round trip on an already-open binary connection.
func EncodePing(id uint32) []byte { return encodeBare(FramePing, id) }

// encodePong builds a FramePong.
func encodePong(id uint32) []byte { return encodeBare(FramePong, id) }

// encodeBare builds a body-less frame: length | type | id.
func encodeBare(kind byte, id uint32) []byte {
	buf := make([]byte, 4+1+4)
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
	buf[4] = kind
	binary.LittleEndian.PutUint32(buf[5:], id)
	return buf
}

// frameID extracts the request id from a frame body (the 4 bytes after
// the type, present in every frame type).
func frameID(body []byte) (uint32, error) {
	if len(body) < 4 {
		return 0, fmt.Errorf("server: truncated frame: no request id")
	}
	return binary.LittleEndian.Uint32(body), nil
}

// readFrame reads one frame and returns its type and body (id included).
func readFrame(r *bufio.Reader) (kind byte, body []byte, err error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(head[:])
	if size < 5 || size > maxFrameSize {
		return 0, nil, fmt.Errorf("server: implausible frame size %d", size)
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}
