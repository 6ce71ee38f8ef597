// RQ1 (§4.1): retrofitting a mitigation for CVE-2023-24042 into an FTP
// server binary.
//
// The server reuses one session context across handler threads: USER
// overwrites context->FileName while a LIST handler blocked on the data
// connection still holds it — a directory-traversal race. The fix is a
// ~50-line recompiler pass: instrument the fs_stat and dir_list calls (the
// stat/opendir pair of the original report), compare the path the handler
// uses against the path that was validated, and divert to a runtime handler
// on mismatch.
//
//	go run ./examples/lightftp-patch
package main

import (
	"fmt"
	"log"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/lifter"
	"repro/internal/lower"
	"repro/internal/opt"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	img, _, err := cc.Compile(workloads.LightFTPSource(), cc.Config{Name: "lightftp", Opt: 2})
	if err != nil {
		log.Fatal(err)
	}
	exts := workloads.LightFTPExts()

	exploit := workloads.LightFTPExploit()

	// 1. The unpatched binary is vulnerable: the handler lists the
	// USER-overwritten path.
	m, _ := vm.NewWithExts(img, 1, exts)
	m.SetInput(exploit)
	res := m.Run(1_000_000_000)
	fmt.Printf("unpatched exploit output:\n%s\n", res.Output)

	// 2. Recompile with the detection pass: a custom IR transformation that
	// records the stat'ed path and checks it at the dir_list site.
	p, err := core.NewProject(img, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	// Trace sessions covering every command so the dispatch table's
	// indirect targets are known (hybrid control-flow recovery).
	if _, err := p.Trace([]core.Input{
		{Data: []byte("U/home\nL/pub\nD\nQ\n"), Seed: 1, Exts: exts},
	}); err != nil {
		log.Fatal(err)
	}
	lf, _, err := p.LiftForDebug()
	if err != nil {
		log.Fatal(err)
	}
	instrumentPathChecks(lf.Mod) // <- the "patch": a compiler pass
	if err := opt.Run(lf.Mod, opt.Options{}); err != nil {
		log.Fatal(err)
	}
	low, err := lower.Lower(lf)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The runtime component: remembers validated paths, flags mismatches.
	validated := map[string]bool{}
	alerts := 0
	patched := map[string]vm.ExtFunc{}
	for k, v := range exts {
		patched[k] = v
	}
	patched["__patch_stat_path"] = func(m *vm.Machine, t *vm.Thread) error {
		if s, ok := m.Mem.CString(t.Regs[7]); ok {
			validated[s] = true
		}
		return nil
	}
	patched["__patch_check_path"] = func(m *vm.Machine, t *vm.Thread) error {
		s, _ := m.Mem.CString(t.Regs[7])
		if !validated[s] {
			alerts++
			m.Out.WriteString("[patch] BLOCKED: listing unvalidated path " + s + "\n")
			// Mitigation: neutralize the request by pointing the handler
			// at an empty path (operator policy; could also stop the
			// server or log for forensics).
			m.Mem.WriteBytes(t.Regs[7], []byte{0})
		}
		return nil
	}

	m2, err := vm.NewWithExts(low.Img, 1, patched)
	if err != nil {
		log.Fatal(err)
	}
	m2.SetInput(exploit)
	res2 := m2.Run(1_000_000_000)
	fmt.Printf("patched exploit output:\n%s\n", res2.Output)
	fmt.Printf("alerts raised: %d\n", alerts)
	if alerts == 0 {
		log.Fatal("patch did not detect the exploit")
	}

	// 4. Benign sessions pass through untouched.
	m3, _ := vm.NewWithExts(low.Img, 1, patched)
	m3.SetInput([]byte("L/pub\nD\nQ\n"))
	res3 := m3.Run(1_000_000_000)
	fmt.Printf("benign session on patched binary:\n%s\n", res3.Output)
}

// instrumentPathChecks is the LLVM-pass analogue: for every external call to
// fs_stat insert a __patch_stat_path call with the same path argument, and
// for every dir_list call insert __patch_check_path.
func instrumentPathChecks(m *ir.Module) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Insts); i++ {
				v := b.Insts[i]
				if v.Op != ir.OpCallExt {
					continue
				}
				var hook string
				switch v.ExtName {
				case "fs_stat":
					hook = "__patch_stat_path"
				case "dir_list":
					hook = "__patch_check_path"
				default:
					continue
				}
				call := f.NewValue(ir.OpCallExt)
				call.ExtName = hook
				call.SetArgs(v.Args[0]) // the path argument
				b.InsertBefore(call, i)
				i++
			}
		}
	}
	_ = lifter.ExtMiss
}
