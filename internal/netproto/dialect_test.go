package netproto

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestWireGolden pins the exact bytes of both wire dialects: the
// paper's v1 header and the current v3/v4 one. Every row must marshal
// to its golden bytes and parse back to the same header fields.
func TestWireGolden(t *testing.T) {
	cases := []struct {
		name string
		pkt  Packet
		want []byte
	}{
		{
			name: "v1 status",
			pkt:  Packet{Command: CmdStatus},
			want: []byte{'L', 'Q', 0x01, 0x01},
		},
		{
			name: "v1 read memory",
			pkt:  Packet{Command: CmdReadMemory, Body: MemReq{Addr: 0x40001000, Length: 4}.Marshal()},
			want: []byte{'L', 'Q', 0x01, 0x04, 0x40, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x04},
		},
		{
			name: "v1 response",
			pkt:  Packet{Command: CmdStartLEON | RespFlag, Body: []byte{StatusRunning}},
			want: []byte{'L', 'Q', 0x01, 0x83, 0x04},
		},
		{
			name: "v3 load board 1",
			pkt:  Packet{Command: CmdLoadProgram, Board: 1, Seq: 0xBEEF, HasSeq: true, Body: []byte{0xAA, 0xBB}},
			want: []byte{'L', 'Q', 0x03, 0x02, 0x01, 0xBE, 0xEF, 0xAA, 0xBB},
		},
		{
			name: "v3 error response",
			pkt:  Packet{Command: CmdError, Seq: 7, HasSeq: true, Body: ErrorResp{Code: CmdStatus, Msg: "x"}.Marshal()},
			want: []byte{'L', 'Q', 0x03, 0xFF, 0x00, 0x00, 0x07, 0x01, 'x'},
		},
		{
			name: "v4 traced start board 2",
			pkt: Packet{Command: CmdStartLEON, Board: 2, Seq: 0x0102, HasSeq: true,
				TraceID: 0x0123456789ABCDEF, HasTrace: true, Body: []byte{0x09}},
			want: []byte{'L', 'Q', 0x04, 0x03, 0x02, 0x01, 0x02,
				0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x09},
		},
		{
			name: "v4 wait, empty body",
			pkt:  Packet{Command: CmdWaitResult, Board: 0, Seq: 0xFFFF, HasSeq: true, TraceID: 1, HasTrace: true},
			want: []byte{'L', 'Q', 0x04, 0x0D, 0x00, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0x01},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := tc.pkt.Marshal()
			if !bytes.Equal(raw, tc.want) {
				t.Fatalf("marshal = % x\n   want % x", raw, tc.want)
			}
			got, err := ParsePacket(raw)
			if err != nil {
				t.Fatal(err)
			}
			if got.Command != tc.pkt.Command || got.Board != tc.pkt.Board ||
				got.HasSeq != tc.pkt.HasSeq || got.Seq != tc.pkt.Seq ||
				got.HasTrace != tc.pkt.HasTrace || got.TraceID != tc.pkt.TraceID ||
				!bytes.Equal(got.Body, tc.pkt.Body) {
				t.Errorf("parse = %+v, want %+v", got, tc.pkt)
			}
		})
	}
}

// TestRetiredWireFormsRejected: the committed fuzz corpus keeps one
// datagram of each retired wire form. The v2 header (board byte, no
// seq) is an unsupported version; 0x0B, the retired blocking start,
// parses as a header like any command byte and is refused later, by
// the platform's dispatch, as an unknown command.
func TestRetiredWireFormsRejected(t *testing.T) {
	raw := corpusInput(t, "seed_v2_result_board3")
	if _, err := ParsePacket(raw); err == nil || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Errorf("v2 datagram % x: err = %v, want unsupported version 2", raw, err)
	}
	pkt, err := ParsePacket(corpusInput(t, "seed_v3_startsync"))
	if err != nil || pkt.Command != 0x0B || CommandName(pkt.Command) != "unknown" {
		t.Errorf("v3 corpus packet = %+v, %v; want command 0x0B named unknown", pkt, err)
	}
}

// corpusInput reads one []byte input of the FuzzParsePacket corpus.
func corpusInput(t *testing.T, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParsePacket", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("%s: not a []byte corpus entry", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}
