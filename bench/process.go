package main

import (
	"runtime"
	"syscall"
)

// processSample is the runtime's cumulative GC and allocation ledger.
type processSample struct {
	pauseNS, allocBytes uint64
	gcs                 uint32
}

func sampleProcess() processSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processSample{ms.PauseTotalNs, ms.TotalAlloc, ms.NumGC}
}

// processLayers reports what the process spent on memory since before.
func (r *run) processLayers(before processSample) {
	now := sampleProcess()
	r.layer("process.gc_pause_ms", float64(now.pauseNS-before.pauseNS)/1e6, 0)
	r.layer("process.gc_count", float64(now.gcs-before.gcs), 0)
	r.layer("process.alloc_mb", float64(now.allocBytes-before.allocBytes)/1e6, 0)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.layer("process.peak_rss_mb", float64(ru.Maxrss)/1e3, 0) // Linux reports KiB
	}
}
