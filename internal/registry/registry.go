// Package registry is the versioned on-disk store between the offline
// trainer (cmd/caroltrain) and the online server (carolserve): a plain
// directory tree any operator can inspect, rsync and back up, with atomic
// publishes and checksum-verified loads.
//
// Layout (DESIGN.md §12):
//
//	<root>/<name>/v000042.model   one immutable artifact per version
//	<root>/<name>/MANIFEST        text index: "<version> <sha256> <size>"
//
// Versions are monotonically increasing integers; a publish writes the
// artifact to a temp file in the same directory, fsyncs, renames it into
// place (atomic on POSIX), and then rewrites MANIFEST the same way — so a
// reader never observes a half-written artifact or index, and a crashed
// publish leaves only an ignorable *.tmp file behind. Loads re-hash the
// file and compare against the manifest before the artifact parser ever
// runs, so silent on-disk corruption is caught even when it preserves the
// format's own CRC.
//
// Concurrency: any number of readers may run against a registry while one
// publisher per model name writes to it (the carolserve + caroltrain
// split). Concurrent publishers to the same name are detected — the
// version file is created exclusively, so the loser errors instead of
// overwriting — but retry is the caller's job. Within one process, a
// Registry handle additionally serializes its mutators (Publish, GC) so a
// publisher and a GC sweep sharing the handle cannot interleave
// their manifest read-modify-write cycles and resurrect deleted versions.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"carol/internal/model"
	"carol/internal/safedec"
)

// ErrNotFound reports a missing model name or version.
var ErrNotFound = errors.New("registry: not found")

// nameRE bounds model names to a filesystem- and URL-safe alphabet; this
// is the only thing standing between a query parameter and a path join.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// versionFmt is the zero-padded version file name ("v%06d.model"); the
// padding keeps lexical and numeric order identical for ls and humans.
const versionFmt = "v%06d.model"

// manifestName is the per-model index file.
const manifestName = "MANIFEST"

// Registry is a handle on one registry root directory.
type Registry struct {
	root string
	// mu serializes in-process mutators. Publish and GC each do a manifest
	// read-modify-write; unserialized, a Publish that read the manifest
	// before a concurrent GC rewrote it would write back entries for
	// versions whose files GC just deleted, leaving dangling manifest rows.
	// The O_EXCL version-file guard cannot catch that — the two mutators
	// touch different version files.
	mu sync.Mutex
}

// Open validates root (creating it if absent) and returns a handle.
func Open(root string) (*Registry, error) {
	if root == "" {
		return nil, errors.New("registry: empty root directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return &Registry{root: root}, nil
}

// Root returns the registry's root directory.
func (r *Registry) Root() string { return r.root }

// Version describes one published artifact.
type Version struct {
	Name   string // model name
	Number int    // monotonically increasing, 1-based
	SHA256 string // hex digest of the artifact file
	Size   int64  // artifact size in bytes
	Path   string // absolute-ish path to the artifact file
}

// CheckName validates a model name against the registry's safe alphabet.
func CheckName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("registry: invalid model name %q (want %s)", name, nameRE)
	}
	return nil
}

func (r *Registry) modelDir(name string) string { return filepath.Join(r.root, name) }

// readManifest parses a model's MANIFEST into ascending-version order.
// A missing manifest is ErrNotFound.
func (r *Registry) readManifest(name string) ([]Version, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(r.modelDir(name), manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: model %q", ErrNotFound, name)
		}
		return nil, fmt.Errorf("registry: %w", err)
	}
	var out []Version
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("registry: %s/%s line %d: want 3 fields, have %d",
				name, manifestName, ln+1, len(fields))
		}
		num, err := strconv.Atoi(fields[0])
		if err != nil || num < 1 {
			return nil, fmt.Errorf("registry: %s/%s line %d: bad version %q",
				name, manifestName, ln+1, fields[0])
		}
		sha := strings.ToLower(fields[1])
		if len(sha) != 64 || strings.Trim(sha, "0123456789abcdef") != "" {
			return nil, fmt.Errorf("registry: %s/%s line %d: bad sha256", name, manifestName, ln+1)
		}
		size, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || size < 0 {
			return nil, fmt.Errorf("registry: %s/%s line %d: bad size %q",
				name, manifestName, ln+1, fields[2])
		}
		out = append(out, Version{
			Name:   name,
			Number: num,
			SHA256: sha,
			Size:   size,
			Path:   filepath.Join(r.modelDir(name), fmt.Sprintf(versionFmt, num)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	for i := 1; i < len(out); i++ {
		if out[i].Number == out[i-1].Number {
			return nil, fmt.Errorf("registry: %s/%s: duplicate version %d",
				name, manifestName, out[i].Number)
		}
	}
	return out, nil
}

// writeManifest atomically replaces a model's MANIFEST.
func (r *Registry) writeManifest(name string, versions []Version) error {
	var b strings.Builder
	b.WriteString("# version sha256 size — managed by carol registry; do not edit\n")
	for _, v := range versions {
		fmt.Fprintf(&b, "%d %s %d\n", v.Number, v.SHA256, v.Size)
	}
	dir := r.modelDir(name)
	tmp, err := os.CreateTemp(dir, manifestName+".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.WriteString(b.String()); err != nil {
		_ = tmp.Close() // write/sync error above is primary
		return fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // write/sync error above is primary
		return fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// Publish stores artifact bytes as the next version of name and returns
// its record. The bytes must parse as a valid model artifact — a registry
// never accepts a stream its own readers would reject.
func (r *Registry) Publish(name string, artifact []byte) (Version, error) {
	if err := CheckName(name); err != nil {
		return Version{}, err
	}
	if _, err := model.Read(artifact); err != nil {
		return Version{}, fmt.Errorf("registry: refusing to publish: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	dir := r.modelDir(name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Version{}, fmt.Errorf("registry: %w", err)
	}
	versions, err := r.readManifest(name)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return Version{}, err
	}
	next := 1
	if n := len(versions); n > 0 {
		next = versions[n-1].Number + 1
	}
	final := filepath.Join(dir, fmt.Sprintf(versionFmt, next))
	// Exclusive create of the final name first: two concurrent publishers
	// that both computed the same next version collide here instead of
	// silently overwriting each other after rename.
	guard, err := os.OpenFile(final, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return Version{}, fmt.Errorf("registry: version %d of %q already being published: %w",
			next, name, err)
	}
	if err := guard.Close(); err != nil {
		return Version{}, fmt.Errorf("registry: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "artifact.tmp-*")
	if err != nil {
		return Version{}, fmt.Errorf("registry: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(artifact); err != nil {
		_ = tmp.Close() // write/sync error above is primary
		return Version{}, fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // write/sync error above is primary
		return Version{}, fmt.Errorf("registry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return Version{}, fmt.Errorf("registry: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return Version{}, fmt.Errorf("registry: %w", err)
	}
	sum := sha256.Sum256(artifact)
	v := Version{
		Name:   name,
		Number: next,
		SHA256: hex.EncodeToString(sum[:]),
		Size:   int64(len(artifact)),
		Path:   final,
	}
	if err := r.writeManifest(name, append(versions, v)); err != nil {
		return Version{}, err
	}
	return v, nil
}

// Versions returns every published version of name, ascending.
func (r *Registry) Versions(name string) ([]Version, error) {
	return r.readManifest(name)
}

// Latest returns the newest version of name.
func (r *Registry) Latest(name string) (Version, error) {
	versions, err := r.readManifest(name)
	if err != nil {
		return Version{}, err
	}
	if len(versions) == 0 {
		return Version{}, fmt.Errorf("%w: model %q has no versions", ErrNotFound, name)
	}
	return versions[len(versions)-1], nil
}

// Get returns one specific version of name.
func (r *Registry) Get(name string, number int) (Version, error) {
	versions, err := r.readManifest(name)
	if err != nil {
		return Version{}, err
	}
	for _, v := range versions {
		if v.Number == number {
			return v, nil
		}
	}
	return Version{}, fmt.Errorf("%w: model %q version %d", ErrNotFound, name, number)
}

// List returns the names of every model in the registry, sorted.
func (r *Registry) List() ([]string, error) {
	ents, err := os.ReadDir(r.root)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() || CheckName(e.Name()) != nil {
			continue
		}
		// Only directories that actually hold a manifest count as models;
		// a crashed mkdir without a publish is invisible.
		if _, err := os.Stat(filepath.Join(r.modelDir(e.Name()), manifestName)); err != nil {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Load reads, hash-verifies and parses one version under the given decode
// limits. The manifest digest is checked before the parser touches the
// bytes.
func (r *Registry) Load(v Version, lim safedec.Limits) (*model.Artifact, error) {
	data, err := os.ReadFile(v.Path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if int64(len(data)) != v.Size {
		return nil, fmt.Errorf("registry: %s is %d bytes, manifest says %d",
			v.Path, len(data), v.Size)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != v.SHA256 {
		return nil, fmt.Errorf("registry: %s checksum %s does not match manifest %s",
			v.Path, got, v.SHA256)
	}
	a, err := model.ReadLimited(data, lim)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", v.Path, err)
	}
	return a, nil
}

// GC removes all but the newest keep versions of name, returning the
// numbers it deleted. keep < 1 is an error — a GC that can delete the
// serving version is a footgun, not a feature.
func (r *Registry) GC(name string, keep int) ([]int, error) {
	if keep < 1 {
		return nil, fmt.Errorf("registry: GC keep %d < 1", keep)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	versions, err := r.readManifest(name)
	if err != nil {
		return nil, err
	}
	if len(versions) <= keep {
		return nil, nil
	}
	drop := versions[:len(versions)-keep]
	rest := versions[len(versions)-keep:]
	// Shrink the manifest first: a reader that races the file removal sees
	// a manifest without the dropped versions rather than a manifest entry
	// whose file is gone.
	if err := r.writeManifest(name, rest); err != nil {
		return nil, err
	}
	removed := make([]int, 0, len(drop))
	for _, v := range drop {
		if err := os.Remove(v.Path); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("registry: %w", err)
		}
		removed = append(removed, v.Number)
	}
	return removed, nil
}
