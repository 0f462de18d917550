package sim

import (
	"sync"
	"testing"
)

// TestCompileCacheConcurrentCallersShareOneCompile asserts the cache's
// singleflight: callers compiling one kernel for one configuration at once
// all receive the same allocated program and partition, and the allocation
// pipeline runs once between them.
func TestCompileCacheConcurrentCallersShareOneCompile(t *testing.T) {
	c := DefaultConfig(DesignLTRF)
	kernel := tiledKernel(4, 4)
	cc := NewCompileCache()
	const callers = 8
	infos := make([]CompileInfo, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range infos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			infos[i], errs[i] = cc.Compile(&c, kernel)
		}()
	}
	wg.Wait()
	for i, info := range infos {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if info.Prog != infos[0].Prog || info.Part != infos[0].Part || info.Part == nil {
			t.Errorf("caller %d got program %p, partition %p; want the shared %p, %p",
				i, info.Prog, info.Part, infos[0].Prog, infos[0].Part)
		}
	}
	if n := cc.Compiles(); n != 1 {
		t.Errorf("%d concurrent callers ran %d allocation pipelines, want 1", callers, n)
	}
}
