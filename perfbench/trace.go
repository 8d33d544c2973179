package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp of the run; mono reads the monotonic
// clock relative to it.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// span is one timed interval recorded at a layer boundary in the bench's
// own code. Spans of one op (its initiation and its wait) share id.
type span struct {
	id         uint64
	name       string
	start, end int64 // ns since epoch
}

// tracer keeps one rank's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced regions run. Each rank
// owns its tracer, so no locking is needed.
type tracer struct {
	rank    int
	spans   []span
	dropped int64
}

// maxSpans bounds a tracer's memory and the span file; spans past it are
// counted, not kept.
const maxSpans = 1 << 14

// spanIDs numbers ops across every tracer of the process.
var spanIDs atomic.Uint64

func newTracer(rank int) *tracer { return &tracer{rank: rank} }

// newID returns a fresh op id, unique within the process.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return spanIDs.Add(1)
}

// record keeps one span.
func (t *tracer) record(id uint64, name string, start, end int64) {
	if t == nil {
		return
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{id, name, start, end})
}

// writeSpans writes every tracer's spans as JSON lines to path.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, t := range tracers {
		for _, s := range t.spans {
			fmt.Fprintf(bw, "{\"rank\":%d,\"id\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				t.rank, s.id, s.name, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
