package ir

import (
	"fmt"
	"strings"
)

// Print renders a program in the paper's textual syntax (Figures 1
// and 2). The output round-trips through the parser.
func Print(p *Program) string {
	var sb strings.Builder
	for i, name := range p.Order {
		if i > 0 {
			sb.WriteString("\n")
		}
		PrintFunc(&sb, p.Funcs[name])
	}
	return sb.String()
}

// PrintFunc renders one function.
func PrintFunc(sb *strings.Builder, fn *Func) {
	fmt.Fprintf(sb, "fn %s @%s(", fn.Ret, fn.Name)
	for i, p := range fn.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(sb, "%%%s: %s", p.Name, p.Type)
	}
	sb.WriteString("):")
	if fn.Exported {
		sb.WriteString(" exported")
	}
	sb.WriteString("\n")
	printBlock(sb, fn.Body, 1)
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func printOperand(o Operand) string {
	if o.Base == nil {
		// A bare scalar path such as `end`.
		s := ""
		for _, ix := range o.Path {
			if ix.Kind == IdxEnd {
				s += "end"
			} else {
				s += ix.String()
			}
		}
		return s
	}
	return o.String()
}

func printArgs(in *Instr) string {
	parts := make([]string, len(in.Args))
	for i, a := range in.Args {
		parts[i] = printOperand(a)
	}
	return strings.Join(parts, ", ")
}

func printDirective(sb *strings.Builder, d *Directive, depth int) {
	indent(sb, depth)
	sb.WriteString("#pragma ade")
	var emit func(d *Directive)
	emit = func(d *Directive) {
		if d.Enumerate {
			sb.WriteString(" enumerate")
		}
		if d.NoEnumerate {
			sb.WriteString(" noenumerate")
		}
		if d.NoShare {
			sb.WriteString(" noshare")
		}
		for _, w := range d.NoShareWith {
			fmt.Fprintf(sb, " noshare(%s)", w)
		}
		if d.ShareGroup != "" {
			fmt.Fprintf(sb, " share group(%q)", d.ShareGroup)
		}
		if d.Select != 0 {
			fmt.Fprintf(sb, " select(%s)", d.Select)
		}
		if d.Inner != nil {
			sb.WriteString(" inner(")
			emit(d.Inner)
			sb.WriteString(" )")
		}
	}
	emit(d)
	sb.WriteString("\n")
}

func printInstr(sb *strings.Builder, in *Instr, depth int) {
	if in.Dir != nil {
		printDirective(sb, in.Dir, depth)
	}
	indent(sb, depth)
	res := ""
	switch len(in.Results) {
	case 1:
		res = in.Results[0].String() + " := "
	case 2:
		res = "(" + in.Results[0].String() + ", " + in.Results[1].String() + ") := "
	}
	switch in.Op {
	case OpNew:
		fmt.Fprintf(sb, "%snew %s()", res, in.Alloc)
	case OpBin:
		fmt.Fprintf(sb, "%s%s(%s)", res, in.Bin, printArgs(in))
	case OpCmp:
		fmt.Fprintf(sb, "%s%s(%s)", res, in.Cmp, printArgs(in))
	case OpCast:
		fmt.Fprintf(sb, "%scast<%s>(%s)", res, in.CastTo, printArgs(in))
	case OpField:
		fmt.Fprintf(sb, "%sfield(%s, %d)", res, printOperand(in.Args[0]), in.FieldIdx)
	case OpCall:
		fmt.Fprintf(sb, "%scall @%s(%s)", res, in.Callee, printArgs(in))
	case OpEncode:
		fmt.Fprintf(sb, "%scall @enc(%s)", res, printArgs(in))
	case OpDecode:
		fmt.Fprintf(sb, "%scall @dec(%s)", res, printArgs(in))
	case OpEnumAdd:
		fmt.Fprintf(sb, "%scall @add(%s)", res, printArgs(in))
	case OpNewEnum:
		// The domain defaults to u64 when omitted; any other domain is
		// spelled out so a print/parse round trip keeps the type that
		// decides the enumeration's runtime key storage.
		ty := "Enum"
		if r := in.Result(); r != nil {
			if ct := AsColl(r.Type); ct != nil && ct.Key != nil && ct.Key.String() != "u64" {
				ty = ct.String()
			}
		}
		fmt.Fprintf(sb, "%snew %s()", res, ty)
	case OpEnumGlobal:
		domain := "u64"
		if ct := AsColl(in.Result().Type); ct != nil && ct.Key != nil {
			domain = ct.Key.String()
		}
		fmt.Fprintf(sb, "%senumglobal<%s> @%s", res, domain, in.Callee)
	case OpRet:
		if len(in.Args) == 0 {
			sb.WriteString("ret")
		} else {
			fmt.Fprintf(sb, "ret %s", printOperand(in.Args[0]))
		}
	case OpPhi:
		fmt.Fprintf(sb, "%sphi(%s)", res, printArgs(in))
	default:
		fmt.Fprintf(sb, "%s%s(%s)", res, in.Op, printArgs(in))
	}
	sb.WriteString("\n")
}

func printBlock(sb *strings.Builder, b *Block, depth int) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *Instr:
			printInstr(sb, n, depth)
		case *If:
			indent(sb, depth)
			fmt.Fprintf(sb, "if %s:\n", n.Cond)
			printBlock(sb, n.Then, depth+1)
			if len(n.Else.Nodes) > 0 {
				indent(sb, depth)
				sb.WriteString("else:\n")
				printBlock(sb, n.Else, depth+1)
			}
			for _, p := range n.ExitPhis {
				printInstr(sb, p, depth)
			}
		case *ForEach:
			indent(sb, depth)
			fmt.Fprintf(sb, "for [%s, %s] in %s:\n", n.Key, n.Val, printOperand(n.Coll))
			for _, p := range n.HeaderPhis {
				printInstr(sb, p, depth+1)
			}
			printBlock(sb, n.Body, depth+1)
			for _, p := range n.ExitPhis {
				printInstr(sb, p, depth)
			}
		case *DoWhile:
			indent(sb, depth)
			sb.WriteString("do:\n")
			for _, p := range n.HeaderPhis {
				printInstr(sb, p, depth+1)
			}
			printBlock(sb, n.Body, depth+1)
			indent(sb, depth)
			fmt.Fprintf(sb, "while %s\n", n.Cond)
			for _, p := range n.ExitPhis {
				printInstr(sb, p, depth)
			}
		}
	}
}
