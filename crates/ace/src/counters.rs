//! Blocks of named `u64` counters.

/// Declares a struct of `u64` counters together with its by-name view,
/// so each counter is spelled once: serializers walk the generated
/// `fields` and `from_fields` instead of keeping their own copies of
/// the list, and declaration order is the order they write.
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: u64,)* }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $name {
            /// Every counter as a `(name, value)` pair, in declaration
            /// order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field),)*].into_iter()
            }

            /// Rebuilds the counters by asking `read` for each by name,
            /// in declaration order; the first error aborts.
            pub fn from_fields<E>(
                mut read: impl FnMut(&'static str) -> Result<u64, E>,
            ) -> Result<$name, E> {
                Ok($name { $($field: read(stringify!($field))?,)* })
            }
        }
    };
}
