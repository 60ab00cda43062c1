package minic

import "fmt"

// Parser builds a File from tokens via recursive descent.
type Parser struct {
	toks  []Token
	pos   int
	depth int // statement and expression frames currently open
}

// maxNesting bounds how deeply statements and expressions may nest, counted
// in parseStmt, parseAssign, parseTernary and parseUnary frames (a
// parenthesised operand opens three) plus one per binary operator in a
// chain. The parser and every pass over the AST recurse once per level, so
// an unbounded input (a request body of nested parentheses) would grow a
// goroutine stack toward the runtime's 1 GB limit, a fatal error no recover
// catches. Measured in these units, the dataset generators reach 23, progen
// 88, srcobf strategy outputs 104 and ga populations evolved for up to ten
// generations 130.
const maxNesting = 1000

// enter opens one nesting level and fails past maxNesting. Callers close it
// with a deferred leave; parseBinary instead restores the depth it saved.
func (p *Parser) enter() error {
	p.depth++
	if p.depth > maxNesting {
		return p.errorf("nesting deeper than %d levels", maxNesting)
	}
	return nil
}

func (p *Parser) leave() { p.depth-- }

// Parse parses a MiniC translation unit.
func Parse(src string) (*File, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	file := &File{}
	for !p.atEOF() {
		d, err := p.parseTopDecl()
		if err != nil {
			return nil, err
		}
		file.Decls = append(file.Decls, d...)
	}
	return file, nil
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) cur() Token {
	if p.atEOF() {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos]
}

func (p *Parser) at(n int) Token {
	if p.pos+n >= len(p.toks) {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.cur()
	p.pos++
	return t
}

func (p *Parser) isPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokPunct && t.Text == s
}

func (p *Parser) isKeyword(s string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *Parser) accept(s string) bool {
	if p.isPunct(s) || p.isKeyword(s) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(s string) error {
	if p.accept(s) {
		return nil
	}
	t := p.cur()
	return fmt.Errorf("line %d: expected %q, found %s", t.Line, s, t)
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("line %d: "+format, append([]interface{}{p.cur().Line}, args...)...)
}

// isTypeKeyword reports whether the current token starts a type.
func (p *Parser) isTypeKeyword() bool {
	t := p.cur()
	if t.Kind != TokKeyword {
		return false
	}
	switch t.Text {
	case "int", "float", "double", "char", "void", "const", "struct":
		return true
	}
	return false
}

// parseBaseType parses the scalar or struct base of a type. For structs the
// returned tag names the struct.
func (p *Parser) parseBaseType() (BaseType, string, bool, error) {
	isConst := false
	for p.accept("const") {
		isConst = true
	}
	t := p.cur()
	if t.Kind != TokKeyword {
		return TVoid, "", isConst, p.errorf("expected type, found %s", t)
	}
	var b BaseType
	tag := ""
	switch t.Text {
	case "int":
		b = TInt
	case "float", "double":
		b = TFloat
	case "char":
		b = TChar
	case "void":
		b = TVoid
	case "struct":
		p.pos++
		nt := p.cur()
		if nt.Kind != TokIdent {
			return TVoid, "", isConst, p.errorf("expected struct tag, found %s", nt)
		}
		b, tag = TStruct, nt.Text
	default:
		return TVoid, "", isConst, p.errorf("expected type, found %s", t)
	}
	p.pos++
	for p.accept("const") {
		isConst = true
	}
	return b, tag, isConst, nil
}

// parseTopDecl parses a global variable declaration (possibly several,
// comma-separated) or a function definition.
func (p *Parser) parseTopDecl() ([]Decl, error) {
	base, tag, isConst, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	// "struct Name { ... };" defines a struct type.
	if base == TStruct && p.isPunct("{") {
		sd, err := p.parseStructDef(tag)
		if err != nil {
			return nil, err
		}
		return []Decl{sd}, nil
	}
	ptr := 0
	for p.accept("*") {
		ptr++
	}
	nameTok := p.cur()
	if nameTok.Kind != TokIdent {
		return nil, p.errorf("expected identifier, found %s", nameTok)
	}
	p.pos++
	if p.isPunct("(") {
		fd, err := p.parseFuncRest(TypeSpec{Base: base, Struct: tag, Ptr: ptr}, nameTok.Text)
		if err != nil {
			return nil, err
		}
		return []Decl{fd}, nil
	}
	// Global variable(s).
	var decls []Decl
	name := nameTok.Text
	for {
		vd, err := p.parseVarRest(base, tag, ptr, isConst, name)
		if err != nil {
			return nil, err
		}
		decls = append(decls, vd)
		if !p.accept(",") {
			break
		}
		ptr = 0
		for p.accept("*") {
			ptr++
		}
		nt := p.cur()
		if nt.Kind != TokIdent {
			return nil, p.errorf("expected identifier, found %s", nt)
		}
		p.pos++
		name = nt.Text
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return decls, nil
}

// parseVarRest parses dimensions and initializer of one declarator whose
// name has already been consumed.
func (p *Parser) parseVarRest(base BaseType, tag string, ptr int, isConst bool, name string) (*VarDecl, error) {
	vd := &VarDecl{Name: name, Type: TypeSpec{Base: base, Struct: tag, Ptr: ptr}, Const: isConst}
	for p.accept("[") {
		t := p.cur()
		if t.Kind != TokInt {
			return nil, p.errorf("array dimension must be an integer literal")
		}
		p.pos++
		vd.Type.Dims = append(vd.Type.Dims, int(t.IntVal))
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		if p.isPunct("{") {
			p.pos++
			for !p.isPunct("}") {
				e, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				vd.Inits = append(vd.Inits, e)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect("}"); err != nil {
				return nil, err
			}
		} else {
			e, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			vd.Init = e
		}
	}
	return vd, nil
}

func (p *Parser) parseFuncRest(ret TypeSpec, name string) (*FuncDecl, error) {
	fd := &FuncDecl{Name: name, Ret: ret}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		if p.isKeyword("void") && p.at(1).Kind == TokPunct && p.at(1).Text == ")" {
			p.pos++ // f(void)
		} else {
			for {
				base, tag, _, err := p.parseBaseType()
				if err != nil {
					return nil, err
				}
				ptr := 0
				for p.accept("*") {
					ptr++
				}
				t := p.cur()
				if t.Kind != TokIdent {
					return nil, p.errorf("expected parameter name, found %s", t)
				}
				p.pos++
				pd := &ParamDecl{Name: t.Text, Type: TypeSpec{Base: base, Struct: tag, Ptr: ptr}}
				// Array suffixes decay to pointers; inner dimensions are
				// kept so multi-dimensional indexing still type-checks.
				for p.accept("[") {
					dim := 0
					if p.cur().Kind == TokInt {
						dim = int(p.cur().IntVal)
						p.pos++
					}
					if err := p.expect("]"); err != nil {
						return nil, err
					}
					if pd.Array {
						pd.Type.Dims = append(pd.Type.Dims, dim)
					}
					pd.Array = true
				}
				fd.Params = append(fd.Params, pd)
				if !p.accept(",") {
					break
				}
			}
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.accept(";") {
		// Forward declaration: Body stays nil.
		return fd, nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{}
	for !p.isPunct("}") {
		if p.atEOF() {
			return nil, p.errorf("unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.List = append(blk.List, s)
	}
	p.pos++ // consume "}"
	return blk, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch {
	case p.isPunct("{"):
		return p.parseBlock()
	case p.isPunct(";"):
		p.pos++
		return &EmptyStmt{}, nil
	case p.isTypeKeyword():
		return p.parseDeclStmt()
	case p.isKeyword("if"):
		return p.parseIf()
	case p.isKeyword("while"):
		return p.parseWhile()
	case p.isKeyword("do"):
		return p.parseDoWhile()
	case p.isKeyword("for"):
		return p.parseFor()
	case p.isKeyword("switch"):
		return p.parseSwitch()
	case p.isKeyword("break"):
		p.pos++
		return &BreakStmt{}, p.expect(";")
	case p.isKeyword("continue"):
		p.pos++
		return &ContinueStmt{}, p.expect(";")
	case p.isKeyword("return"):
		p.pos++
		if p.accept(";") {
			return &ReturnStmt{}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{Val: e}, p.expect(";")
	default:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{X: e}, p.expect(";")
	}
}

func (p *Parser) parseDeclStmt() (Stmt, error) {
	base, tag, isConst, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	ds := &DeclStmt{}
	for {
		ptr := 0
		for p.accept("*") {
			ptr++
		}
		t := p.cur()
		if t.Kind != TokIdent {
			return nil, p.errorf("expected identifier in declaration, found %s", t)
		}
		p.pos++
		vd, err := p.parseVarRest(base, tag, ptr, isConst, t.Text)
		if err != nil {
			return nil, err
		}
		ds.Vars = append(ds.Vars, vd)
		if !p.accept(",") {
			break
		}
	}
	return ds, p.expect(";")
}

func (p *Parser) parseIf() (Stmt, error) {
	p.pos++ // "if"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then}
	if p.accept("else") {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	p.pos++ // "while"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body}, nil
}

func (p *Parser) parseDoWhile() (Stmt, error) {
	p.pos++ // "do"
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expect("while"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &DoWhileStmt{Body: body, Cond: cond}, p.expect(";")
}

func (p *Parser) parseFor() (Stmt, error) {
	p.pos++ // "for"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	st := &ForStmt{}
	if !p.isPunct(";") {
		if p.isTypeKeyword() {
			init, err := p.parseDeclStmt() // consumes ";"
			if err != nil {
				return nil, err
			}
			st.Init = init
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Init = &ExprStmt{X: e}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.pos++
	}
	if !p.isPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *Parser) parseSwitch() (Stmt, error) {
	p.pos++ // "switch"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	st := &SwitchStmt{Tag: tag}
	for !p.isPunct("}") {
		var c *SwitchCase
		switch {
		case p.accept("case"):
			neg := p.accept("-")
			t := p.cur()
			var v int64
			switch t.Kind {
			case TokInt, TokChar:
				v = t.IntVal
			default:
				return nil, p.errorf("case value must be an integer or char literal")
			}
			p.pos++
			if neg {
				v = -v
			}
			c = &SwitchCase{Val: v}
		case p.accept("default"):
			c = &SwitchCase{IsDefault: true}
		default:
			return nil, p.errorf("expected case or default, found %s", p.cur())
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		for !p.isPunct("}") && !p.isKeyword("case") && !p.isKeyword("default") {
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, s)
		}
		st.Cases = append(st.Cases, c)
	}
	p.pos++ // "}"
	return st, nil
}

// Expression parsing (precedence climbing).

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssign() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) parseAssign() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokPunct && assignOps[t.Text] {
		p.pos++
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{Op: t.Text, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

func (p *Parser) parseTernary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return cond, nil
	}
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Cond: cond, Then: then, Else: els}, nil
}

// binary operator precedence levels, loosest first.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	// The tree is left-deep, so each operator nests the chain so far one
	// level deeper and counts toward maxNesting.
	depth := p.depth
	for {
		t := p.cur()
		if t.Kind != TokPunct || !containsStr(binLevels[level], t.Text) {
			p.depth = depth
			return lhs, nil
		}
		p.pos++
		if err := p.enter(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: t.Text, X: lhs, Y: rhs}
	}
}

func containsStr(s []string, x string) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "!", "~", "*", "&":
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{Op: t.Text, X: x}, nil
		case "+":
			p.pos++
			return p.parseUnary()
		case "++", "--":
			p.pos++
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &IncDecExpr{X: x, Op: t.Text}, nil
		case "(":
			// Cast or parenthesized expression.
			if p.at(1).Kind == TokKeyword {
				switch p.at(1).Text {
				case "int", "float", "double", "char":
					p.pos += 2
					spec := TypeSpec{}
					switch p.at(-1).Text {
					case "int":
						spec.Base = TInt
					case "float", "double":
						spec.Base = TFloat
					case "char":
						spec.Base = TChar
					}
					for p.accept("*") {
						spec.Ptr++
					}
					if err := p.expect(")"); err != nil {
						return nil, err
					}
					x, err := p.parseUnary()
					if err != nil {
						return nil, err
					}
					return &CastExpr{To: spec, X: x}, nil
				case "struct":
					// (struct Name *...) pointer cast.
					if p.at(2).Kind == TokIdent {
						spec := TypeSpec{Base: TStruct, Struct: p.at(2).Text}
						p.pos += 3
						for p.accept("*") {
							spec.Ptr++
						}
						if err := p.expect(")"); err != nil {
							return nil, err
						}
						if spec.Ptr == 0 {
							return nil, p.errorf("cast to a bare struct type is not supported")
						}
						x, err := p.parseUnary()
						if err != nil {
							return nil, err
						}
						return &CastExpr{To: spec, X: x}, nil
					}
				}
			}
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("["):
			p.pos++
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{X: x, Idx: idx}
		case p.isPunct(".") || p.isPunct("->"):
			arrow := p.cur().Text == "->"
			p.pos++
			ft := p.cur()
			if ft.Kind != TokIdent {
				return nil, p.errorf("expected field name, found %s", ft)
			}
			p.pos++
			x = &FieldExpr{X: x, Name: ft.Text, Arrow: arrow}
		case p.isPunct("++"):
			p.pos++
			x = &IncDecExpr{X: x, Op: "++", Post: true}
		case p.isPunct("--"):
			p.pos++
			x = &IncDecExpr{X: x, Op: "--", Post: true}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.pos++
		return &IntLit{Val: t.IntVal}, nil
	case TokFloat:
		p.pos++
		return &FloatLit{Val: t.FloatVal}, nil
	case TokChar:
		p.pos++
		return &CharLit{Val: byte(t.IntVal)}, nil
	case TokString:
		p.pos++
		return &StringLit{Val: t.Text}, nil
	case TokIdent:
		p.pos++
		if p.isPunct("(") {
			p.pos++
			call := &CallExpr{Name: t.Text}
			for !p.isPunct(")") {
				a, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ident{Name: t.Text}, nil
	case TokPunct:
		if t.Text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &ParenExpr{X: e}, nil
		}
	}
	return nil, p.errorf("unexpected token %s in expression", t)
}

// parseStructDef parses the braced field list and trailing semicolon of a
// struct definition whose "struct Tag" prefix is already consumed.
func (p *Parser) parseStructDef(tag string) (*StructDecl, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	sd := &StructDecl{Name: tag}
	for !p.isPunct("}") {
		base, ftag, _, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		for {
			ptr := 0
			for p.accept("*") {
				ptr++
			}
			t := p.cur()
			if t.Kind != TokIdent {
				return nil, p.errorf("expected field name, found %s", t)
			}
			p.pos++
			fd := &VarDecl{Name: t.Text, Type: TypeSpec{Base: base, Struct: ftag, Ptr: ptr}}
			for p.accept("[") {
				dt := p.cur()
				if dt.Kind != TokInt {
					return nil, p.errorf("field array dimension must be an integer literal")
				}
				p.pos++
				fd.Type.Dims = append(fd.Type.Dims, int(dt.IntVal))
				if err := p.expect("]"); err != nil {
					return nil, err
				}
			}
			sd.Fields = append(sd.Fields, fd)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	p.pos++ // "}"
	return sd, p.expect(";")
}
