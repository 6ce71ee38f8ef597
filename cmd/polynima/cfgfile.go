package main

import (
	"fmt"
	"os"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/store"
)

// CFG checkpoint file for the additive loop (-cfg): the evolving graph is
// persisted after every miss batch the loop integrates, so a later run —
// or a run killed mid-session — resumes from the last complete checkpoint
// instead of re-discovering every indirect target. Writes go through
// store.WriteFileAtomic (temp file + rename in the target directory), so a
// crash at any instant leaves either the previous checkpoint or the new
// one, never a torn file.

// loadCFG reads a previously checkpointed graph. A missing file is a fresh
// start (nil, nil); an unreadable or unparsable file is an error — the
// atomic writer never produces one, so it signals outside interference and
// silently dropping it would discard the user's accumulated session.
func loadCFG(path string) (*cfg.Graph, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	g, err := cfg.Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w (delete the file to restart discovery)", path, err)
	}
	return g, nil
}

// saveCFG returns the core.Project OnCFGUpdate hook that checkpoints the
// graph to path after each additive miss batch.
func saveCFG(path string) func(*cfg.Graph) error {
	return func(g *cfg.Graph) error {
		data, err := g.Marshal()
		if err != nil {
			return err
		}
		return store.WriteFileAtomic(path, data, 0o644)
	}
}

// resumeProject builds the additive project, resuming from the checkpoint
// at cfgPath when one exists.
func resumeProject(img *image.Image, cfgPath string, opts core.Options) (*core.Project, bool, error) {
	if cfgPath == "" {
		p, err := core.NewProject(img, opts)
		return p, false, err
	}
	g, err := loadCFG(cfgPath)
	if err != nil {
		return nil, false, err
	}
	var p *core.Project
	resumed := false
	if g != nil {
		p = core.NewProjectWithGraph(img, g, opts)
		resumed = true
	} else {
		p, err = core.NewProject(img, opts)
		if err != nil {
			return nil, false, err
		}
	}
	p.OnCFGUpdate = saveCFG(cfgPath)
	// Checkpoint the starting graph too, so even a session that dies before
	// its first discovery leaves a resumable file.
	g, err = p.CFG()
	if err != nil {
		return nil, false, err
	}
	if err := p.OnCFGUpdate(g); err != nil {
		return nil, false, err
	}
	return p, resumed, nil
}
