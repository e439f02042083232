package repro.core

/** How round 1 stops GMM on one partition (Sec. 3.1/3.2). One spec serves
  * every coreset pipeline: both MapReduce algorithms and the sequential
  * algorithm, which is the same pipeline at ℓ = 1.
  */
sealed trait CoresetSpec

object CoresetSpec {
  /** Fixed coreset size τ (the experiments set τ = μ·k or μ·(k+z)). */
  final case class FixedSize(tau: Int) extends CoresetSpec
  /** ε-stopping rule r(T^τ) ≤ (ε/2)·r(T^kBase), with kBase = k for plain
    * k-center and k+z (deterministic) or k+z' (randomized) with outliers.
    */
  final case class Precision(eps: Double, kBase: Int) extends CoresetSpec
}
