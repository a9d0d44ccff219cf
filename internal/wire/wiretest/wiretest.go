// Package wiretest holds what the golden-frame tests of the packages
// that own field walks (core, the workloads, baseline) share: reading a
// testdata file of captured frames, and the checks every captured frame
// gets. The files were written by the hand-written codecs of commit
// 44cf024, the last before the field walk, and are not regenerated: a
// walk that changes bytes on purpose re-captures its own line.
package wiretest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"star/internal/txn"
	"star/internal/wire"
	"star/internal/wire/prim"
)

// Golden is one captured frame: its name, the Size()/WireSize() the
// capturing commit reported for it (0 where the file has no size
// column), and its bytes.
type Golden struct {
	Name  string
	Size  int
	Frame []byte
}

// Read parses a golden file: one "name [size] hex" line per frame, '#'
// starting a comment.
func Read(t *testing.T, path string) []Golden {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []Golden
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var g Golden
		if strings.Count(line, " ") == 1 {
			_, err = fmt.Sscanf(line, "%s %x", &g.Name, &g.Frame)
		} else {
			_, err = fmt.Sscanf(line, "%s %d %x", &g.Name, &g.Size, &g.Frame)
		}
		if err != nil {
			t.Fatalf("%s: line %q: %v", path, line, err)
		}
		out = append(out, g)
	}
	return out
}

// Truncations decodes every strict prefix of frame: each must be
// refused with ErrTruncated or ErrCorrupt (and, implicitly, no panic).
func Truncations(t *testing.T, name string, frame []byte, decode func([]byte) error) {
	t.Helper()
	for cut := 0; cut < len(frame); cut++ {
		err := decode(frame[:cut:cut])
		if !errors.Is(err, prim.ErrTruncated) && !errors.Is(err, prim.ErrCorrupt) {
			t.Fatalf("%s cut at %d of %d: %v, want ErrTruncated or ErrCorrupt", name, cut, len(frame), err)
		}
	}
}

// Requests holds a workload's procedures to the golden requests in path:
// each sample encodes to the captured bytes, the captured bytes decode
// to an equal request and re-encode unchanged, WireSize() is the
// captured number and the exact body length, and every truncation is
// refused. Every line must have a sample and every sample a line. It
// returns the procedure ids the file covered.
func Requests(t *testing.T, c *wire.Codec, path string, samples map[string]*txn.Request) map[uint8]bool {
	t.Helper()
	ids := map[uint8]bool{}
	for _, g := range Read(t, path) {
		req := samples[g.Name]
		if req == nil {
			t.Fatalf("golden request %q has no sample", g.Name)
		}
		delete(samples, g.Name)
		ids[g.Frame[0]] = true
		enc, err := c.AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.Name, err)
		}
		if !bytes.Equal(enc, g.Frame) {
			t.Fatalf("%s: encodes to\n%x\ncaptured\n%x", g.Name, enc, g.Frame)
		}
		got := req.Proc.(interface{ WireSize() int }).WireSize()
		if body := len(g.Frame) - wire.RequestOverhead(req); got != g.Size || got != body {
			t.Fatalf("%s: WireSize() = %d, captured %d, encoded body is %d", g.Name, got, g.Size, body)
		}
		dec, rest, err := c.DecodeRequest(g.Frame)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode golden request: %v (%d bytes left)", g.Name, err, len(rest))
		}
		if !reflect.DeepEqual(dec, req) {
			t.Fatalf("%s: golden request decodes to\n%#v\nwant\n%#v", g.Name, dec.Proc, req.Proc)
		}
		if re, _ := c.AppendRequest(nil, dec); !bytes.Equal(re, g.Frame) {
			t.Fatalf("%s: decode → re-encode changed the request:\n%x\nvs\n%x", g.Name, re, g.Frame)
		}
		Truncations(t, g.Name, g.Frame, func(b []byte) error {
			_, _, err := c.DecodeRequest(b)
			return err
		})
	}
	if len(samples) != 0 {
		t.Fatalf("%d samples have no golden request", len(samples))
	}
	return ids
}
