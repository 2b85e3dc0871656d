package testlang

// slab hands out values of one type from chunks it allocates, so a
// parse makes one allocation per chunk rather than one per node or
// list. nodes.size sizes the chunks from the source, for most files to
// need one: a first chunk of first values, then chunks of more. Zero
// sizes allocate exactly what is asked, and a nil slab allocates every
// request on its own.
type slab[T any] struct {
	free        []T
	first, more int
}

// maxChunk caps a chunk, so a long source that uses a node kind once
// does not take a chunk sized for its length.
const maxChunk = 64

// take returns n zero values, with capacity n, so an append to the
// slice never writes into a neighbour's.
func (s *slab[T]) take(n int) []T {
	if s == nil {
		return make([]T, n)
	}
	if len(s.free) < n {
		size := s.first
		if s.free != nil {
			size = s.more
		}
		s.free = make([]T, max(n, size))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

func (s *slab[T]) new() *T { return &s.take(1)[0] }

// clone copies list out at its exact length; an empty list is nil.
func (s *slab[T]) clone(list []T) []T {
	if len(list) == 0 {
		return nil
	}
	out := s.take(len(list))
	copy(out, list)
	return out
}

// nodes are a parse's slabs: the node kinds a test file has most of,
// and the lists it builds, each copied out of the parser's scratch
// stacks at exact length.
type nodes struct {
	idents    slab[IdentExpr]
	ints      slab[IntLitExpr]
	binaries  slab[BinaryExpr]
	indexes   slab[IndexExpr]
	exprStmts slab[ExprStmt]
	assigns   slab[AssignExpr]
	varDecls  slab[VarDecl]
	declStmts slab[DeclStmt]
	blocks    slab[Block]
	calls     slab[CallExpr]
	postfixes slab[PostfixExpr]
	fors      slab[ForStmt]
	ifs       slab[IfStmt]
	casts     slab[CastExpr]
	returns   slab[ReturnStmt]
	strs      slab[StringLitExpr]
	dirStmts  slab[DirectiveStmt]

	stmtLists  slab[Stmt]
	exprLists  slab[Expr]
	declLists  slab[*VarDecl]
	directives slab[Directive]
	clauses    slab[DirClause]
}

// size sizes each slab for a source of n bytes. Its bytes of source
// per node are the lower quartile over the Part-Two suites' C and C++
// files, so three in four files of n bytes need one chunk.
func (ns *nodes) size(n int) {
	ns.idents.size(n, 30)
	ns.ints.size(n, 46)
	ns.binaries.size(n, 68)
	ns.indexes.size(n, 110)
	ns.exprStmts.size(n, 105)
	ns.assigns.size(n, 203)
	ns.varDecls.size(n, 120)
	ns.declStmts.size(n, 120)
	ns.blocks.size(n, 119)
	ns.calls.size(n, 139)
	ns.postfixes.size(n, 190)
	ns.fors.size(n, 244)
	ns.ifs.size(n, 384)
	ns.casts.size(n, 398)
	ns.returns.size(n, 360)
	ns.strs.size(n, 379)
	ns.dirStmts.size(n, 344)
	ns.stmtLists.size(n, 44)
	ns.exprLists.size(n, 112)
	ns.declLists.size(n, 120)
	ns.directives.size(n, 344)
	ns.clauses.size(n, 243)
}

// size sizes s for a source of n bytes with bytesPer bytes of source
// per value: the first chunk holds the estimate, and a source that
// needs more takes a quarter of it at a time; neither passes maxChunk.
func (s *slab[T]) size(n, bytesPer int) {
	est := max(n/bytesPer, 1)
	s.first, s.more = min(est, maxChunk), min(max(est/4, 1), maxChunk)
}
