package telemetry

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/tensor"
)

// BuildInfo identifies the running binary: the main module version,
// the VCS revision it was built from (with a -dirty suffix for a
// modified working tree), the Go toolchain, and the f64 GEMM kernel
// the host dispatched to (tensor.Kernel). Everything else degrades
// to "unknown" when the binary was built without module or VCS
// metadata (e.g. go run from a tarball), never to an error — version
// reporting must not be able to fail.
type BuildInfo struct {
	Version   string `json:"version"`
	Revision  string `json:"revision"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// Build returns the binary's build information, read once from
// runtime/debug.ReadBuildInfo.
func Build() BuildInfo {
	buildOnce.Do(func() {
		buildInfo = BuildInfo{Version: "unknown", Revision: "unknown", GoVersion: "unknown", Kernel: tensor.Kernel()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfo.GoVersion = bi.GoVersion
		if v := bi.Main.Version; v != "" {
			buildInfo.Version = v
		}
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			if dirty {
				rev += "-dirty"
			}
			buildInfo.Revision = rev
		}
	})
	return buildInfo
}

// VersionString renders the one-line answer every binary's -version
// flag prints: "name version (revision, goversion, kernel kernel)".
func VersionString(name string) string {
	b := Build()
	return fmt.Sprintf("%s %s (%s, %s, kernel %s)", name, b.Version, b.Revision, b.GoVersion, b.Kernel)
}

// RegisterBuildInfo publishes the conventional build-info gauge: a
// constant 1 whose labels carry the identity, so a scraper can join
// every other series to the code that produced it.
func (r *Registry) RegisterBuildInfo(name string) {
	b := Build()
	r.GaugeVec(name, "Build and version information of the running binary (value is always 1).",
		"version", "revision", "goversion", "kernel").
		With(b.Version, b.Revision, b.GoVersion, b.Kernel).Set(1)
}
