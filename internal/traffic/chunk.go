package traffic

import (
	"sara/internal/dma"
	"sara/internal/meter"
	"sara/internal/sim"
	"sara/internal/txn"
)

// ChunkSource models processing-time cores like the GPS and modem: every
// period a chunk of work arrives whose memory traffic must complete within
// a deadline (Table 2: "processing time"). The chunk meter degrades the
// NPI live once the deadline has passed.
type ChunkSource struct {
	name   string
	engine *dma.Engine

	// ChunkBytes is the memory volume of one work chunk.
	ChunkBytes uint64
	// Period is the chunk arrival period in cycles.
	Period sim.Cycle
	// reqSize is the transaction size.
	reqSize uint32
	// Scatter addresses the chunk randomly within the region instead of
	// sequentially, defeating row-buffer locality (GPS correlators gather
	// from scattered satellite-channel buffers).
	Scatter bool
	// StartOffset delays the first chunk.
	StartOffset sim.Cycle

	rng    *sim.Rand
	str    *stream
	picker kindPicker
	meter  *meter.ChunkMeter

	nextChunk   sim.Cycle
	issuedBytes uint64
	doneBytes   uint64
	active      bool

	// ChunksDone and ChunksMissed count chunks completed within/over the
	// deadline; ChunksOverrun counts chunks still unfinished when the next
	// one arrived (the new chunk supersedes the old).
	ChunksDone    uint64
	ChunksMissed  uint64
	ChunksOverrun uint64
}

// NewChunkSource builds a chunked work source over region r, reporting
// completion times into m.
func NewChunkSource(name string, e *dma.Engine, rng *sim.Rand, r Region,
	chunkBytes uint64, period sim.Cycle, reqSize uint32, readFrac float64,
	m *meter.ChunkMeter) *ChunkSource {
	s := &ChunkSource{
		name:       name,
		engine:     e,
		ChunkBytes: chunkBytes,
		Period:     period,
		reqSize:    reqSize,
		rng:        rng,
		str:        newStream(r, reqSize),
		picker:     kindPicker{readFrac: readFrac, rng: rng},
		meter:      m,
	}
	e.OnComplete(func(t *txn.Transaction, now sim.Cycle) {
		if !s.active {
			return
		}
		s.doneBytes += uint64(t.Size)
		if s.doneBytes >= s.ChunkBytes {
			s.active = false
			s.meter.ChunkDone(now)
			if now-s.chunkStart() <= s.meter.Deadline {
				s.ChunksDone++
			} else {
				s.ChunksMissed++
			}
		}
	})
	return s
}

func (s *ChunkSource) chunkStart() sim.Cycle { return s.nextChunk - s.Period }

// Name returns the source label.
func (s *ChunkSource) Name() string { return s.name }

// NextActivity implements sim.Idler: a chunk source is busy while the
// current chunk still has bytes to issue, waits for its start offset
// before the first chunk, and otherwise sleeps until the next chunk
// boundary.
//
//sara:hotpath
func (s *ChunkSource) NextActivity(now sim.Cycle) (sim.Cycle, bool) {
	if s.nextChunk == 0 {
		// First Tick initializes the schedule.
		return now, true
	}
	if s.active && s.issuedBytes < s.ChunkBytes && s.engine.PendingSpace() > 0 {
		return now, true
	}
	if !s.active && s.issuedBytes == 0 && s.doneBytes == 0 {
		// Waiting for the very first chunk start.
		if s.StartOffset > now {
			return s.StartOffset, true
		}
		return now, true
	}
	// Fully issued (waiting on completions, which are events) or between
	// chunks: nothing to do until the next boundary.
	return s.nextChunk, true
}

// ChunkProgress reports the in-flight chunk's completion fraction.
func (s *ChunkSource) ChunkProgress() float64 {
	if s.ChunkBytes == 0 {
		return 1
	}
	p := float64(s.doneBytes) / float64(s.ChunkBytes)
	if p > 1 {
		p = 1
	}
	return p
}

// Tick starts chunks on schedule and feeds the chunk's requests to the DMA.
func (s *ChunkSource) Tick(now sim.Cycle) {
	if s.nextChunk == 0 {
		s.nextChunk = s.StartOffset + s.Period
	}
	if now >= s.nextChunk-s.Period && now >= s.StartOffset && !s.active && s.issuedBytes == 0 {
		// First chunk of the run.
		s.startChunk(now)
	}
	if now >= s.nextChunk {
		if s.active {
			s.ChunksOverrun++
			s.meter.ChunkDone(now) // record the overrun duration
		}
		s.startChunk(now)
	}
	for s.active && s.issuedBytes < s.ChunkBytes && s.engine.PendingSpace() > 0 {
		addr := s.str.next()
		if s.Scatter {
			addr = randomIn(s.rng, s.str.region, s.reqSize)
		}
		if !s.engine.Enqueue(s.picker.pick(), addr, s.reqSize) {
			break
		}
		s.issuedBytes += uint64(s.reqSize)
	}
}

func (s *ChunkSource) startChunk(now sim.Cycle) {
	s.active = true
	s.issuedBytes = 0
	s.doneBytes = 0
	s.nextChunk = now + s.Period
	s.meter.ChunkStarted(now)
}
