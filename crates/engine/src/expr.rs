//! Scalar expressions: column references, literals, comparisons, boolean
//! connectives and arithmetic — enough for the evaluation queries'
//! predicates and derived values (e.g. `sum/count` averages, discounted
//! prices).

use std::ops::Range;

use ftpde_store::value::Value;

/// A scalar expression evaluated against a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The value of the `i`-th column.
    Col(usize),
    /// A literal.
    Lit(Value),
    /// Comparison of two sub-expressions; yields `Int(1)` or `Int(0)`.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND of boolean (0/1) sub-expressions.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR of boolean (0/1) sub-expressions.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT of a boolean (0/1) sub-expression.
    Not(Box<Expr>),
    /// Arithmetic on two sub-expressions (float semantics if either side
    /// is a float, integer semantics otherwise).
    Arith(ArithOp, Box<Expr>, Box<Expr>),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` — always float division (the engine's only division use is
    /// deriving averages).
    Div,
}

impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Integer literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    /// Float literal.
    pub fn litf(v: f64) -> Expr {
        Expr::Lit(Value::Float(v))
    }

    /// `self <op> rhs`.
    pub fn cmp(self, op: CmpOp, rhs: Expr) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(rhs))
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Eq, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Lt, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Le, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Gt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Ge, rhs)
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// `self / rhs` (float).
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// Evaluates the expression against `row`.
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            Expr::Col(i) => row[*i],
            Expr::Lit(v) => *v,
            Expr::Cmp(op, l, r) => {
                let ord = l.eval(row).total_cmp(&r.eval(row));
                let b = match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                };
                Value::Int(b as i64)
            }
            Expr::And(l, r) => Value::Int((l.eval_bool(row) && r.eval_bool(row)) as i64),
            Expr::Or(l, r) => Value::Int((l.eval_bool(row) || r.eval_bool(row)) as i64),
            Expr::Not(e) => Value::Int(!e.eval_bool(row) as i64),
            Expr::Arith(op, l, r) => {
                let (a, b) = (l.eval(row), r.eval(row));
                match (op, a, b) {
                    (ArithOp::Div, a, b) => Value::Float(a.as_float() / b.as_float()),
                    (ArithOp::Add, Value::Int(x), Value::Int(y)) => Value::Int(x + y),
                    (ArithOp::Sub, Value::Int(x), Value::Int(y)) => Value::Int(x - y),
                    (ArithOp::Mul, Value::Int(x), Value::Int(y)) => Value::Int(x * y),
                    (ArithOp::Add, a, b) => Value::Float(a.as_float() + b.as_float()),
                    (ArithOp::Sub, a, b) => Value::Float(a.as_float() - b.as_float()),
                    (ArithOp::Mul, a, b) => Value::Float(a.as_float() * b.as_float()),
                }
            }
        }
    }

    /// Evaluates the expression as a boolean (non-zero = true).
    pub fn eval_bool(&self, row: &[Value]) -> bool {
        match self.eval(row) {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
        }
    }

    /// Compiles a predicate built only from `Col op Lit(Int)` comparisons
    /// and `And` into comparisons over integer columns. Every other shape
    /// returns `None`, and its caller evaluates it row by row.
    pub(crate) fn compile(&self) -> Option<ColumnPredicate> {
        let mut terms = Vec::new();
        self.conjuncts(&mut terms).then_some(ColumnPredicate { terms })
    }

    /// Appends the expression's `Col op Lit(Int)` conjuncts to `out`;
    /// `false` if it has any other shape.
    fn conjuncts(&self, out: &mut Vec<Term>) -> bool {
        match self {
            Expr::Cmp(op, l, r) => match (&**l, &**r) {
                (Expr::Col(col), Expr::Lit(Value::Int(v))) => {
                    out.push(Term::new(*col, *op, *v));
                    true
                }
                _ => false,
            },
            Expr::And(l, r) => l.conjuncts(out) && r.conjuncts(out),
            _ => false,
        }
    }
}

/// A conjunction of `column op literal` comparisons on integer columns,
/// compiled by [`Expr::compile`]. It keeps exactly the rows on which the
/// expression it came from evaluates to true.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ColumnPredicate {
    terms: Vec<Term>,
}

/// One comparison, as a test of the column against a closed range: keeps
/// `lo <= x <= hi`, or its complement when `outside`.
#[derive(Debug, PartialEq, Eq)]
struct Term {
    col: usize,
    lo: i64,
    hi: i64,
    outside: bool,
}

impl Term {
    fn new(col: usize, op: CmpOp, v: i64) -> Self {
        let (lo, hi, outside) = match op {
            CmpOp::Eq => (v, v, false),
            CmpOp::Ne => (v, v, true),
            CmpOp::Lt => (v, i64::MAX, true),
            CmpOp::Le => (i64::MIN, v, false),
            CmpOp::Gt => (i64::MIN, v, true),
            CmpOp::Ge => (v, i64::MAX, false),
        };
        Term { col, lo, hi, outside }
    }

    #[inline]
    fn keeps(&self, x: i64) -> bool {
        (self.lo <= x && x <= self.hi) != self.outside
    }
}

impl ColumnPredicate {
    /// Replaces `sel` with the indices in `rows`, in ascending order, of the
    /// rows the predicate keeps; `column(c)` is column `c` of the rows.
    pub(crate) fn select<'c>(
        &self,
        column: impl Fn(usize) -> &'c [i64],
        rows: Range<usize>,
        sel: &mut Vec<usize>,
    ) {
        sel.clear();
        sel.extend(rows);
        for t in &self.terms {
            let col = column(t.col);
            sel.retain(|&i| t.keeps(col[i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftpde_store::value::{int_row, Row};

    #[test]
    fn comparisons() {
        let r = int_row(&[5, 10]);
        assert!(Expr::col(0).lt(Expr::col(1)).eval_bool(&r));
        assert!(Expr::col(0).le(Expr::lit(5)).eval_bool(&r));
        assert!(Expr::col(1).ge(Expr::lit(10)).eval_bool(&r));
        assert!(Expr::col(1).gt(Expr::lit(9)).eval_bool(&r));
        assert!(Expr::col(0).eq(Expr::lit(5)).eval_bool(&r));
        assert!(!Expr::col(0).eq(Expr::lit(6)).eval_bool(&r));
        assert!(Expr::col(0).cmp(CmpOp::Ne, Expr::lit(6)).eval_bool(&r));
    }

    #[test]
    fn boolean_connectives() {
        let r = int_row(&[1]);
        let t = Expr::lit(1);
        let f = Expr::lit(0);
        assert!(t.clone().and(t.clone()).eval_bool(&r));
        assert!(!t.clone().and(f.clone()).eval_bool(&r));
        assert!(t.clone().or(f.clone()).eval_bool(&r));
        assert!(!f.clone().or(f.clone()).eval_bool(&r));
        assert!(Expr::Not(Box::new(f)).eval_bool(&r));
        assert!(!Expr::Not(Box::new(t)).eval_bool(&r));
    }

    #[test]
    fn arithmetic() {
        let r = int_row(&[6, 4]);
        assert_eq!(
            Expr::Arith(ArithOp::Add, Box::new(Expr::col(0)), Box::new(Expr::col(1))).eval(&r),
            Value::Int(10)
        );
        assert_eq!(
            Expr::Arith(ArithOp::Sub, Box::new(Expr::col(0)), Box::new(Expr::col(1))).eval(&r),
            Value::Int(2)
        );
        assert_eq!(Expr::col(0).mul(Expr::col(1)).eval(&r), Value::Int(24));
        assert_eq!(Expr::col(0).div(Expr::col(1)).eval(&r), Value::Float(1.5));
    }

    #[test]
    fn mixed_type_arithmetic_widens() {
        let r: Row = vec![Value::Int(3), Value::Float(0.5)].into_boxed_slice();
        assert_eq!(Expr::col(0).mul(Expr::col(1)).eval(&r), Value::Float(1.5));
        assert!(Expr::col(1).lt(Expr::col(0)).eval_bool(&r));
    }

    #[test]
    fn compiled_comparisons_keep_what_eval_keeps() {
        let xs = [i64::MIN, -2, -1, 0, 1, 2, i64::MAX];
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let mut sel = vec![99];
        for op in ops {
            for v in xs {
                let e = Expr::col(0).cmp(op, Expr::lit(v)).and(Expr::col(1).ge(Expr::lit(0)));
                let p = e.compile().expect("column-literal conjunction");
                let ys: Vec<i64> = (0..xs.len() as i64).map(|i| i % 2 - 1 + i % 3).collect();
                p.select(|c| if c == 0 { &xs } else { &ys }, 1..xs.len(), &mut sel);
                let want: Vec<usize> =
                    (1..xs.len()).filter(|&i| e.eval_bool(&int_row(&[xs[i], ys[i]]))).collect();
                assert_eq!(sel, want, "{op:?} {v}");
            }
        }
    }

    #[test]
    fn only_column_literal_conjunctions_compile() {
        let c = || Expr::col(0);
        assert!(c().lt(Expr::lit(3)).and(c().ge(Expr::lit(1))).compile().is_some());
        for e in [
            Expr::lit(3).gt(c()),
            c().lt(Expr::col(1)),
            c().lt(Expr::litf(3.0)),
            c().lt(Expr::lit(3)).or(c().gt(Expr::lit(5))),
            Expr::Not(Box::new(c().lt(Expr::lit(3)))),
            c().lt(Expr::lit(3)).and(Expr::lit(1)),
            c(),
        ] {
            assert_eq!(e.compile(), None, "{e:?}");
        }
    }

    #[test]
    fn float_comparison_against_int() {
        let r: Row = vec![Value::Float(2.0)].into_boxed_slice();
        assert!(Expr::col(0).eq(Expr::lit(2)).eval_bool(&r));
    }
}
