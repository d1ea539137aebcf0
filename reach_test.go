package parbw

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Reasons an exported name may stay with no caller outside tests.
const (
	paperClaim  = "paper claim: states a result of the paper as code"
	refOracle   = "reference oracle: tests check the simulated result against it"
	testInput   = "test-input generator"
	testSeam    = "test seam: lets a test observe or perturb a component"
	ifaceMethod = "interface method: called through an interface, never by name"
	validation  = "validation: checks an input that tests build by hand"
)

// keepList names every exported declaration of the root module that no
// non-test file of the root or benchmark module names, with the reason it
// stays. A key is the declaring package's directory, a dot and the name; a
// method is keyed by its receiver's type and its name
// ("internal/engine.Slab.Cap"), and "<dir>.*" keeps every such name of one
// package.
var keepList = map[string]string{
	"internal/collective.BroadcastVecQSM":         paperClaim,
	"internal/collective.GatherBSP":               paperClaim,
	"internal/collective.GatherQSM":               paperClaim,
	"internal/collective.PrefixSumBSP":            paperClaim,
	"internal/collective.PrefixSumQSM":            paperClaim,
	"internal/emulate.PRAMm.SimulateCRCWWrite":    paperClaim,
	"internal/emulate.PointerJumpRank":            paperClaim,
	"internal/lower.BSPgStableBeta":               paperClaim,
	"internal/lower.BSPmStableRates":              paperClaim,
	"internal/lower.LeaderCRPRAMm":                paperClaim,
	"internal/lower.LeaderLBQSMm":                 paperClaim,
	"internal/lower.RoutingLBBSPm":                paperClaim,
	"internal/problems.MatrixTransposeBSP":        paperClaim,
	"internal/problems.SummationBSP":              paperClaim,
	"internal/problems.SummationQSM":              paperClaim,
	"internal/queue.SPrime":                       paperClaim,
	"internal/sched.QSMResult.OptimalOfflineQSM":  paperClaim,
	"internal/sched.UnbalancedConsecutiveSendQSM": paperClaim,
	"internal/async.Machine.OfflineBound":         refOracle,
	"internal/problems.IsSorted":                  refOracle,
	"internal/problems.List.SequentialRanks":      refOracle,
	"internal/queue.MG1.Stable":                   refOracle,
	"internal/queue.SimulateFIFO":                 refOracle,
	"internal/dynamic.NewBurstAdversary":          testInput,
	"internal/problems.NearlyOrderedList":         testInput,
	"internal/sched.PermutationPlan":              testInput,
	"internal/async.Machine.Sent":                 testSeam,
	"internal/async.Msg.Arrival":                  testSeam,
	"internal/engine.Slab.Cap":                    testSeam,
	"internal/fault.*":                            testSeam,
	"internal/oracle.DecodeEntry":                 testSeam,
	"internal/oracle.Invariants":                  testSeam,
	"internal/oracle.Replay":                      testSeam,
	"internal/pram.Machine.BitsMoved":             testSeam,
	"internal/pram.Machine.ROMReads":              testSeam,
	"internal/qsm.Machine.Phases":                 testSeam,
	"internal/service.Job.WatchEvents":            testSeam,
	"internal/work.Decode":                        testSeam,
	"internal/retry.stopError.Unwrap":             ifaceMethod,
	"internal/work/dagsched.DAG.Check":            validation,
}

// TestNothingOnlyTestsReach scans the module's non-test Go files with
// go/ast: every exported top-level func, method, type, const or var must be
// named by some non-test file of this module or of benchmark/ outside its
// own declaration, or sit in keepList. An entry that gains a caller, or
// whose declaration disappears, fails too, so the list shrinks only when
// the code it names is wired in or deleted.
func TestNothingOnlyTestsReach(t *testing.T) {
	s := newReachScan()
	if err := s.parse(".", "benchmark"); err != nil {
		t.Fatal(err)
	}
	s.markUses()

	stale := map[string]bool{}
	for key := range keepList {
		stale[key] = true
	}
	for _, d := range s.decls {
		wild := d.pkg + ".*"
		switch {
		case d.namedBy == "" && keepList[d.key] == "" && keepList[wild] == "":
			t.Errorf("%s: no non-test file names it; wire it in, delete it, or add it to keepList with a reason", d.key)
		case d.namedBy == "":
			delete(stale, d.key)
			delete(stale, wild)
		case keepList[d.key] != "":
			t.Errorf("%s is on the keep-list but %s names it; take it off the list", d.key, d.namedBy)
			delete(stale, d.key)
		}
	}
	for key := range stale {
		t.Errorf("keep-list entry %s matches no unreached exported declaration; take it off the list", key)
	}
}

// reachDecl is one exported top-level declaration, and a non-test file
// that names it outside its own declaration ("" if none does).
type reachDecl struct {
	pkg, key string
	pos, end token.Pos // the declaration's own span
	namedBy  string
}

// reachFile is one parsed non-test file and its package's directory.
type reachFile struct {
	pkg, path string
	ast       *ast.File
}

// reachScan matches names syntactically. A package-level name counts as
// named by a bare identifier in its own package or by a selector on an
// import of that package. A method counts as named by any selector with
// its name, since which type a selector resolves to needs type checking.
type reachScan struct {
	fset    *token.FileSet
	files   []reachFile
	decls   []*reachDecl
	byName  map[string]*reachDecl   // pkg + "." + name, package-level names
	methods map[string][]*reachDecl // method name
}

func newReachScan() *reachScan {
	return &reachScan{fset: token.NewFileSet(), byName: map[string]*reachDecl{}, methods: map[string][]*reachDecl{}}
}

// parse reads the non-test Go files of the module at root, skipping the
// nested module users, and records root's exported declarations; then it
// reads users' files, which only name things.
func (s *reachScan) parse(root, users string) error {
	nested := filepath.Join(root, users)
	walk := func(dir string) error {
		return filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if path != dir && (path == nested || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(s.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			s.files = append(s.files, reachFile{pkg: filepath.ToSlash(filepath.Dir(path)), path: path, ast: f})
			return nil
		})
	}
	if err := walk(root); err != nil {
		return err
	}
	for _, f := range s.files {
		s.collect(f)
	}
	sort.Slice(s.decls, func(i, j int) bool { return s.decls[i].key < s.decls[j].key })
	return walk(nested)
}

// collect records f's exported top-level declarations.
func (s *reachScan) collect(f reachFile) {
	add := func(key string, n ast.Node) *reachDecl {
		d := &reachDecl{pkg: f.pkg, key: f.pkg + "." + key, pos: n.Pos(), end: n.End()}
		s.decls = append(s.decls, d)
		return d
	}
	for _, gd := range f.ast.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			name := gd.Name.Name
			switch {
			case !gd.Name.IsExported():
			case gd.Recv == nil:
				s.byName[f.pkg+"."+name] = add(name, gd)
			default:
				s.methods[name] = append(s.methods[name], add(recvTypeName(gd.Recv.List[0].Type)+"."+name, gd))
			}
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						s.byName[f.pkg+"."+spec.Name.Name] = add(spec.Name.Name, spec)
					}
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						if n.IsExported() {
							s.byName[f.pkg+"."+n.Name] = add(n.Name, spec)
						}
					}
				}
			}
		}
	}
}

// recvTypeName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvTypeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// markUses records, for each declaration, a file that names it.
func (s *reachScan) markUses() {
	for _, f := range s.files {
		imports := map[string]string{} // local name → package directory in the module
		for _, im := range f.ast.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(path, "parbw/")
			if !ok {
				continue
			}
			name := filepath.Base(dir)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A receiver names its type only to attach the method.
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					s.mark(s.byName[imports[id.Name]+"."+n.Sel.Name], f, n.Pos())
					return false
				}
				for _, d := range s.methods[n.Sel.Name] {
					s.mark(d, f, n.Pos())
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				s.mark(s.byName[f.pkg+"."+n.Name], f, n.Pos())
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}
}

// mark records that f names d at pos, unless pos lies in d's own
// declaration.
func (s *reachScan) mark(d *reachDecl, f reachFile, pos token.Pos) {
	if d == nil || d.namedBy != "" || (pos >= d.pos && pos < d.end) {
		return
	}
	d.namedBy = f.path
}
