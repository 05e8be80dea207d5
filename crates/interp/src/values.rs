//! Runtime values.

use std::fmt;
use vsensor_lang::ast::Type;

/// A MiniHPC runtime value.
///
/// Register-sized: the array payloads sit behind a thin pointer so the two
/// scalar variants every hot path moves are 16 bytes, not 32 (DESIGN.md
/// §10, "Value layout"). Arrays are allocated once per declaration and
/// indexed in place, so the extra hop is off the per-element path.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::box_collection)] // a `Box<[T]>` is a fat pointer: 24-byte `Value`
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Integer array.
    IntArray(Box<Vec<i64>>),
    /// Float array.
    FloatArray(Box<Vec<f64>>),
}

// The layout DESIGN.md §10 ("Value layout") depends on: every value the
// VM's scalar path moves fits two registers, and an instruction half a
// cache line. A variant that re-fattens `Value` brings back the
// store-forwarding stalls that were half of the dispatch loop's time; put
// its payload behind a pointer instead.
const _: () = assert!(std::mem::size_of::<Value>() == 16);
const _: () = assert!(std::mem::size_of::<Option<Value>>() == 16);
const _: () = assert!(std::mem::size_of::<crate::bytecode::Insn>() <= 32);

impl Value {
    /// A zeroed array of `len` elements of scalar type `ty`.
    #[doc(hidden)]
    pub fn zeroed_array(ty: Type, len: usize) -> Value {
        match ty {
            Type::Int => Value::IntArray(Box::new(vec![0; len])),
            Type::Float => Value::FloatArray(Box::new(vec![0.0; len])),
        }
    }

    /// Interpret as an integer; floats truncate.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Interpret as a float.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Truthiness: nonzero scalars are true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            _ => true,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::IntArray(a) => write!(f, "int[{}]", a.len()),
            Value::FloatArray(a) => write!(f, "float[{}]", a.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.9).as_int(), Some(2));
        assert_eq!(Value::zeroed_array(Type::Int, 1).as_int(), None);
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Float(0.0).truthy());
    }
}
