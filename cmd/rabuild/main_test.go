package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGameFlagsRefused: a game's own flag given for a game that would
// ignore it fails the build, naming the flag, before anything is built;
// the same flags for their own game, and defaults left alone, build.
func TestGameFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-game", "kalah", "-stones", "2", "-refine"}, "-refine"},
		{[]string{"-game", "kalah", "-stones", "2", "-loop", "zero"}, "-loop"},
		{[]string{"-game", "kalah", "-stones", "2", "-grandslam", "forfeit"}, "-grandslam"},
		{[]string{"-game", "ttt", "-heaps", "2"}, "-heaps"},
		{[]string{"-game", "awari", "-stones", "2", "-max", "4"}, "-max"},
		{[]string{"-game", "nim", "-board", "5"}, "-board"},
		{[]string{"-game", "krk", "-board", "4", "-stones", "3"}, "-stones"},
	} {
		out := t.TempDir()
		err := run(append(tc.args, "-engine", "sequential", "-out", out))
		if err == nil || !strings.Contains(err.Error(), tc.flag+" applies only to") {
			t.Errorf("rabuild %s: err %v, want %s refused", strings.Join(tc.args, " "), err, tc.flag)
		}
		if files, _ := filepath.Glob(filepath.Join(out, "*.radb")); len(files) != 0 {
			t.Errorf("rabuild %s: refused, yet wrote %v", strings.Join(tc.args, " "), files)
		}
	}
	for _, args := range [][]string{
		{"-game", "awari", "-stones", "2", "-loop", "even-split", "-grandslam", "forfeit", "-refine"},
		{"-game", "kalah", "-stones", "2"},
		{"-game", "nim", "-heaps", "2", "-max", "3"},
		{"-game", "ttt"},
	} {
		out := t.TempDir()
		if err := run(append(args, "-engine", "sequential", "-out", out)); err != nil {
			t.Errorf("rabuild %s: %v", strings.Join(args, " "), err)
		}
		if ents, _ := os.ReadDir(out); len(ents) == 0 {
			t.Errorf("rabuild %s wrote nothing", strings.Join(args, " "))
		}
	}
}
