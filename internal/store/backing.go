package store

import "fmt"

// OpenBacking builds the backing tier the CLIs' -store, -store-max-mb,
// -remote-store and -remote-store-token flags describe: a disk tier rooted
// at dir, pruned to maxMB MiB when maxMB > 0, probed before a remote store
// service at remoteURL. Either may be empty; with both empty the result is
// nil (memory only). remote carries the remote tier's token and trace
// position.
func OpenBacking(dir string, maxMB int64, remoteURL string, remote RemoteOptions) (Store, error) {
	var tiers []Store
	if dir != "" {
		d, err := OpenDisk(dir)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if maxMB > 0 {
			d.SetMaxBytes(maxMB << 20)
		}
		tiers = append(tiers, d)
	}
	if remoteURL != "" {
		r, err := NewRemote(remoteURL, remote)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, r)
	}
	return NewChain(tiers...), nil
}
